//! Property-based self-healing composition on the real cluster
//! transport: scripted stall/partition windows × epoch checkpointing ×
//! crash recovery × restore-from-snapshot, all at once.
//!
//! Within the recovery budget the cluster must be *bit-exact* against
//! the O(n²) oracle — every stall released, every partition-dropped
//! frame retransmitted under its original seq, every suspect node
//! respawned and resumed. Beyond the budget the task is fenced and its
//! partition shed with exact accounting: the comparison inside
//! `run_cluster_differential` then uses the shed-adjusted oracle, so a
//! pass proves the degraded answer is exactly the join over surviving
//! records — never a hang, never a silently partial result.
//!
//! Runs on the in-process backend: identical protocol and failure
//! detector as TCP (the `ssj-cli` suite pins the TCP twin), without
//! per-case process-spawn cost — so the proptest can afford composition.

use dssj::core::{JoinConfig, Window};
use dssj::distrib::{ClusterBackend, LocalAlgo, PartitionMethod, Strategy};
use proptest::prelude::*;
use std::time::Duration;
use testkit::{
    run_cluster_differential_relaxed, run_cluster_restore_differential, with_deadline,
    DifferentialCase,
};

/// Every case runs under a hard deadline: the self-healing failure mode
/// is precisely "the cluster hangs", and a proptest that hangs reports
/// nothing.
const CASE_DEADLINE: Duration = Duration::from_secs(60);

fn base_case(records: usize, k: usize, tau: f64, windowed: bool) -> DifferentialCase {
    let mut join = JoinConfig::jaccard(tau);
    if windowed {
        join = join.with_window(Window::Count(60));
    }
    DifferentialCase::new(
        records,
        k,
        join,
        LocalAlgo::bundle(),
        Strategy::LengthAuto {
            method: PartitionMethod::LoadAware,
            sample: 50,
        },
    )
}

/// Attaches one seeded outage: kind 0 = stall, 1 = one-way partition,
/// 2 = two-way partition. Windows stay short enough (≤ 30 transmissions
/// vs the 64-frame in-flight cap) that retransmission always closes them
/// promptly; longer windows escalate into detector-driven respawns,
/// which the cases with a budget exercise too.
fn with_outage(
    case: DifferentialCase,
    kind: u8,
    task: usize,
    after: u64,
    len: u64,
) -> DifferentialCase {
    match kind {
        0 => case.with_stall(task, after, len),
        1 => case.with_partition(task, after, len, false),
        _ => case.with_partition(task, after, len, true),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Partition/stall chaos × checkpointing × crash, all within budget,
    /// on self-joins and bi-streams: the cluster result must equal the
    /// clean oracle bit-exactly, with nothing shed and nothing fenced.
    #[test]
    fn outages_checkpoints_and_crashes_compose_exactly(
        seed in 0u64..10_000,
        tau in 0.6f64..0.85,
        kind in 0u8..3,
        task in 0usize..3,
        after in 5u64..40,
        len in 5u64..30,
        interval in 10u64..40,
        crash_raw in 0u8..2,
        windowed_raw in 0u8..2,
        bistream_raw in 0u8..2,
    ) {
        let (crash, windowed) = (crash_raw == 1, windowed_raw == 1);
        let mut case = with_outage(
            base_case(150, 3, tau, windowed || crash),
            kind, task, after, len,
        ).with_checkpoints(interval);
        if crash {
            case = case.with_crash();
        }
        if bistream_raw == 1 {
            case = case.bistream();
        }
        let out = with_deadline(CASE_DEADLINE, move || {
            run_cluster_differential_relaxed(seed, &case, ClusterBackend::InProcess)
        });
        prop_assert_eq!(out.shed, 0, "nothing may be shed within budget");
        prop_assert!(out.result.health.fenced_tasks.is_empty());
        prop_assert!(
            out.result.epochs_committed > 0,
            "no epoch ever committed despite interval {}", interval
        );
    }

    /// The same composition with a zero budget and a scripted kill: when
    /// the kill fires, the task is fenced instead of respawned, and the
    /// shed-adjusted oracle comparison inside `run_cluster_differential`
    /// proves the shed accounting is exact. (On seeds where the ack
    /// horizon is never reached the run stays clean — the comparison is
    /// then against the full oracle, equally exact.)
    #[test]
    fn exhausted_budget_sheds_exactly_under_outage_chaos(
        seed in 0u64..10_000,
        tau in 0.6f64..0.85,
        kind in 0u8..3,
        task in 0usize..3,
        after in 5u64..40,
        len in 5u64..30,
    ) {
        let case = with_outage(base_case(150, 3, tau, true), kind, task, after, len)
            .with_crash()
            .with_recovery_budget(0);
        let out = with_deadline(CASE_DEADLINE, move || {
            run_cluster_differential_relaxed(seed, &case, ClusterBackend::InProcess)
        });
        if out.result.health.fenced_tasks.is_empty() {
            prop_assert_eq!(out.shed, 0, "shed without a fence");
        } else {
            prop_assert_eq!(out.result.health.respawns, 0, "budget 0 respawned");
        }
    }

    /// Restore composes with outage chaos: phase one runs under a stall
    /// or partition while checkpointing, the whole cluster dies, and the
    /// restored phase-two cluster must produce exactly the post-cut
    /// oracle pairs.
    #[test]
    fn restore_composes_with_outage_chaos(
        seed in 0u64..10_000,
        tau in 0.6f64..0.85,
        kind in 0u8..3,
        task in 0usize..3,
        after in 5u64..30,
        len in 5u64..25,
        interval in 10u64..30,
    ) {
        let case = with_outage(base_case(150, 3, tau, false), kind, task, after, len)
            .with_checkpoints(interval);
        let out = with_deadline(CASE_DEADLINE, move || {
            run_cluster_restore_differential(seed, &case, ClusterBackend::InProcess)
        });
        prop_assert!(out.cut.is_some(), "phase one committed no epoch");
    }
}
