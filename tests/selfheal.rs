//! Property-based self-healing composition on the real cluster
//! transport: scripted stall/partition windows × epoch checkpointing ×
//! crash recovery × restore-from-snapshot, all at once.
//!
//! Within the recovery budget the cluster must be *bit-exact* against
//! the O(n²) oracle — every stall released or dropped with its node,
//! every partition-dropped frame resent under its original seq to the
//! node its gap ended, every suspect node respawned and resumed. Beyond the budget the run fails naming the
//! task — never a hang, never a partial result.
//!
//! Runs on the in-process backend: identical protocol and failure
//! detector as TCP (the `ssj-cli` suite pins the TCP twin), without
//! per-case process-spawn cost — so the proptest can afford composition.

use dssj::core::{JoinConfig, Window};
use dssj::distrib::{ClusterBackend, Fault, FaultKind, LocalAlgo, PartitionMethod, Strategy};
use proptest::prelude::*;
use std::time::Duration;
use testkit::{
    run_cluster_differential_relaxed, run_cluster_exhausting_budget,
    run_cluster_restore_differential, with_deadline, DifferentialCase,
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

/// Attaches one outage: kind 0 = stall, 1 = one-way partition, 2 =
/// two-way partition. Windows stay under the 64-frame in-flight cap, so
/// later frames can pass a stall; a partition's gap, or a window still
/// open when the stream runs out, ends the node in a respawn that closes
/// the window.
fn with_outage(
    case: DifferentialCase,
    kind: u8,
    task: usize,
    after: u64,
    len: u64,
) -> DifferentialCase {
    let kind = match kind {
        0 => FaultKind::Stall { len },
        _ => FaultKind::Partition {
            len,
            two_way: kind == 2,
        },
    };
    case.with_fault(Fault { task, after, kind })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Partition/stall outages × checkpointing × crash, all within budget,
    /// on self-joins and bi-streams: the cluster result must equal the
    /// clean oracle bit-exactly, with nothing shed.
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
        prop_assert!(
            out.result.epochs_committed > 0,
            "no epoch ever committed despite interval {}", interval
        );
    }

    /// The same composition with a zero budget and a scripted kill: when
    /// the kill fires, or the outage breaks a session, the run fails
    /// naming the task instead of respawning it. (On seeds where
    /// neither happens the run completes, equal to the full oracle with
    /// nothing respawned.) The detector's 80 ms deadline may also suspect
    /// a node a loaded host stalled, so any task may be the one named.
    #[test]
    fn exhausted_budget_fails_stop_under_outage_chaos(
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
        let failed = with_deadline(CASE_DEADLINE, move || {
            run_cluster_exhausting_budget(seed, &case, ClusterBackend::InProcess)
        });
        if let Some(msg) = failed {
            let named = |t| format!("task {t} exhausted its recovery budget of 0 respawn(s)");
            prop_assert!((0..3).any(|t| msg == named(t)), "{}", msg);
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
