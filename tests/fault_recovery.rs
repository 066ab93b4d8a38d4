//! Property-based crash recovery: killing joiner tasks mid-stream must
//! never change the result set. For random workload shapes, thresholds,
//! windows and (seeded, deterministic) fault points, the post-recovery
//! result multiset must equal the naive no-fault ground truth — no lost
//! pairs, no duplicated pairs — for every `Strategy` × `LocalAlgo`.
//!
//! The chaos composition tests run on the cluster launcher's in-process
//! backend, the one place a link can lose a frame: every launcher→node
//! link rolls seeded drop / duplicate / delay dice, masked by the
//! sequenced `Data`/`Ack` sessions, on top of a supervised node kill.
//! Those runs are real threads on the wall clock, so each body carries a
//! deadline — a hung cluster must fail its case, not the job.
//!
//! How much a restart replays is pinned separately, on simulated runs
//! with and without checkpoints, against a replay count derived from the
//! routing.

use dssj::core::join::run_stream;
use dssj::core::{JoinConfig, NaiveJoiner, Threshold, Window};
use dssj::distrib::{
    run_cluster, run_distributed, CheckpointConfig, ClusterBackend, ClusterConfig, ClusterFault,
    DistributedJoinConfig, JoinSpec, LengthRouter, LocalAlgo, PartitionMethod, Router,
    Strategy as DistStrategy,
};
use dssj::partition::{equal_depth, LengthHistogram, LengthPartition};
use dssj::stormlite::{FaultPlan, RetryConfig};
use dssj::text::Record;
use dssj::workloads::{DatasetProfile, LengthDist, StreamGenerator};
use proptest::prelude::*;
use std::time::Duration;
use testkit::{with_deadline, DifferentialCase};

fn profile_strategy() -> impl Strategy<Value = DatasetProfile> {
    (
        100usize..2000, // vocab
        0.0f64..1.3,    // skew
        1usize..6,      // lo
        6usize..40,     // hi
        0.0f64..0.7,    // dup rate
        0usize..4,      // dup mutations
    )
        .prop_map(
            |(vocab, skew, lo, hi, dup_rate, dup_mutations)| DatasetProfile {
                name: "fault-prop",
                vocab,
                skew,
                len_dist: LengthDist::Uniform { lo, hi },
                dup_rate,
                dup_mutations,
                recent_pool: 256,
            },
        )
}

fn sorted_keys(pairs: &[dssj::MatchPair]) -> Vec<(u64, u64)> {
    let mut keys: Vec<_> = pairs.iter().map(|m| m.key()).collect();
    keys.sort_unstable();
    keys
}

fn strategies(k: usize) -> [DistStrategy; 4] {
    [
        DistStrategy::LengthAuto {
            method: PartitionMethod::LoadAware,
            sample: 60,
        },
        // Explicit and skewed (uppers 3, 6, 12, …): short-end joiners
        // nearly idle, the last one owning every long record.
        DistStrategy::Length(LengthPartition::from_uppers(
            (0..k).map(|i| 3 << i).collect(),
        )),
        DistStrategy::Prefix,
        DistStrategy::Broadcast,
    ]
}

const LOCALS: [LocalAlgo; 4] = [
    LocalAlgo::Naive,
    LocalAlgo::AllPairs,
    LocalAlgo::PpJoin,
    LocalAlgo::Bundle {
        bundle_tau: None,
        max_members: 64,
        max_delta_frac: 0.25,
    },
];

const CASE_DEADLINE: Duration = Duration::from_secs(60);

/// `k` joiners running `local` under `strategy`, on threads behind queues
/// of 64 messages.
fn threads_64(
    k: usize,
    join: JoinConfig,
    local: LocalAlgo,
    strategy: DistStrategy,
) -> DistributedJoinConfig {
    let spec = JoinSpec {
        local,
        strategy,
        ..JoinSpec::recommended(k, join)
    };
    DistributedJoinConfig {
        channel_capacity: 64,
        ..DistributedJoinConfig::new(spec)
    }
}

/// An in-process cluster of `k` nodes with chaos on every link and one
/// supervised kill, task and ack count both derived from `fault_seed`
/// (the kill never fires on a seed whose victim acks fewer messages).
fn chaotic_cluster(
    k: usize,
    join: JoinConfig,
    local: LocalAlgo,
    strategy: DistStrategy,
    fault_seed: u64,
    chaos_seed: u64,
) -> ClusterConfig {
    let mut cfg = ClusterConfig::recommended(k, join, ClusterBackend::InProcess);
    cfg.spec.local = local;
    cfg.spec.strategy = strategy;
    cfg.channel_capacity = 64;
    cfg.chaos_seed = Some(chaos_seed);
    cfg.fault = Some(ClusterFault {
        task: (fault_seed % k as u64) as usize,
        after_acks: 1 + (fault_seed / k as u64) % 60,
    });
    cfg
}

/// Over 100 seeds, seeded link chaos on every session of a 3-node cluster
/// leaves the result equal to the oracle — and the sweep as a whole really
/// did lose frames. The retry timeout is tightened well below the default:
/// an in-process round trip is microseconds, and a spurious
/// retransmission is only re-acked.
#[test]
fn cluster_sessions_mask_link_chaos_for_100_seeds() {
    let join = JoinConfig::jaccard(0.7);
    let strategy = DistStrategy::LengthAuto {
        method: PartitionMethod::LoadAware,
        sample: 50,
    };
    let case = DifferentialCase::new(300, 3, join, LocalAlgo::bundle(), strategy).with_chaos();
    let (mut retransmissions, mut dup_results_dropped) = (0, 0);
    for seed in 0..100u64 {
        let records = testkit::differential_records(seed, case.records);
        let mut cfg = testkit::cluster_config_for(seed, &case, ClusterBackend::InProcess);
        cfg.retry = RetryConfig {
            base_timeout: Duration::from_millis(4),
            backoff_factor: 2,
            max_timeout: Duration::from_millis(64),
        };
        let expect = testkit::self_join(&records, &join);
        let out = with_deadline(CASE_DEADLINE, move || run_cluster(&records, &cfg));
        testkit::assert_pairs_equal(seed, &out.pairs, expect, "chaotic cluster result");
        retransmissions += out.retransmissions;
        dup_results_dropped += out.dup_results_dropped;
    }
    assert!(
        retransmissions + dup_results_dropped > 0,
        "100 chaotic runs retransmitted nothing and dropped no duplicate result"
    );
}

/// Joiner `task`'s inbound stream from an unbatched dispatcher, in order:
/// `Some((id, indexed))` for each record routed there (probe, index or
/// both in one message), `None` for the barrier after every `interval`
/// records.
fn inbound(
    records: &[Record],
    mut router: LengthRouter,
    task: usize,
    interval: Option<u64>,
) -> Vec<Option<(u64, bool)>> {
    let mut stream = Vec::new();
    for (i, record) in records.iter().enumerate() {
        let route = router.route(record);
        let indexed = route.index.contains(&task);
        if indexed || route.probe.contains(&task) {
            stream.push(Some((record.id().0, indexed)));
        }
        if interval.is_some_and(|n| (i as u64 + 1).is_multiple_of(n)) {
            stream.push(None);
        }
    }
    stream
}

/// Replay volume after a late joiner crash. A restart re-indexes the
/// crashed task's buffered index targets up to its watermark (the last
/// record it fully processed) that are still in the window of that
/// watermark: at most `W + 1` under a count window of `W`, all of them
/// under an unbounded one. Checkpoints are never read mid-run, so a
/// checkpointed run replays exactly what its uncheckpointed twin does.
///
/// Each count is derived from the dispatcher's routing by one formula and
/// compared exactly, and every arm's pairs equal its crash-free run's.
#[test]
fn late_crash_replays_exactly_the_live_window() {
    const K: usize = 4;
    const TASK: usize = 1;
    const W: u64 = 500;
    const INTERVAL: u64 = 500;
    let records = StreamGenerator::new(DatasetProfile::aol(), 7).take_records(6_000);
    let threshold = Threshold::jaccard(0.8);
    let partition = equal_depth(&LengthHistogram::from_records(&records), K);

    let arms = [
        ("count window", Window::Count(W), None),
        (
            "count window + checkpoints",
            Window::Count(W),
            Some(INTERVAL),
        ),
        ("unbounded", Window::Unbounded, None),
        ("unbounded + checkpoints", Window::Unbounded, Some(INTERVAL)),
    ];
    let mut replayed = Vec::new();
    for (arm, window, interval) in arms {
        let join = JoinConfig { threshold, window };
        let stream = inbound(
            &records,
            LengthRouter::new(threshold, partition.clone()),
            TASK,
            interval,
        );
        // Crash once 90 % of the task's records are fully processed.
        let late = stream.iter().flatten().count() * 9 / 10;
        let (crash_after, watermark) = stream
            .iter()
            .enumerate()
            .filter_map(|(at, msg)| msg.map(|(id, _)| (at as u64 + 1, id)))
            .nth(late - 1)
            .expect("the task receives records");

        let cfg = || {
            DistributedJoinConfig::new(JoinSpec {
                strategy: DistStrategy::Length(partition.clone()),
                checkpoint: interval.map(CheckpointConfig::in_memory),
                ..JoinSpec::recommended(K, join)
            })
            .with_sim(7)
        };
        let clean = run_distributed(&records, &cfg());
        let out = run_distributed(
            &records,
            &cfg().with_fault(FaultPlan::new().crash("joiner", TASK, crash_after)),
        );
        assert_eq!(
            sorted_keys(&out.pairs),
            sorted_keys(&clean.pairs),
            "{arm}: pairs"
        );
        assert_eq!(out.report.total_restarts(), 1, "{arm}");

        let first = match window {
            Window::Count(w) => watermark.saturating_sub(w),
            _ => 0,
        };
        let expect = stream
            .iter()
            .flatten()
            .filter(|&&(id, indexed)| indexed && (first..=watermark).contains(&id))
            .count() as u64;
        assert_eq!(out.joiners[TASK].replayed, expect, "{arm}: replayed");
        replayed.push(out.joiners[TASK].replayed);
    }
    let [count, count_checkpointed, unbounded, unbounded_checkpointed] = replayed[..] else {
        unreachable!("four arms")
    };
    assert!(count <= W + 1, "count window replayed {count}");
    assert_eq!(count_checkpointed, count, "count window: checkpoints");
    assert_eq!(unbounded_checkpointed, unbounded, "unbounded: checkpoints");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// One seeded joiner crash per run (task and crash point both derived
    /// from `fault_seed`), checked against the no-fault naive ground truth
    /// for every distribution strategy × local algorithm.
    #[test]
    fn crashed_joiner_recovers_to_exact_results(
        profile in profile_strategy(),
        seed in 0u64..10_000,
        tau in 0.55f64..0.9,
        k in 2usize..5,
        window_kind in 0usize..3,
        fault_seed in 0u64..1_000_000,
    ) {
        let records = StreamGenerator::new(profile, seed).take_records(180);
        let window = match window_kind {
            0 => Window::Unbounded,
            1 => Window::Count(60),
            _ => Window::TimeMs(40),
        };
        let join = JoinConfig { threshold: Threshold::jaccard(tau), window };
        let mut naive = NaiveJoiner::new(join);
        let expect = sorted_keys(&run_stream(&mut naive, &records));

        for strategy in strategies(k) {
            for local in LOCALS {
                let plan = FaultPlan::new().crash_seeded("joiner", k, 150, fault_seed);
                let cfg = threads_64(k, join, local, strategy.clone()).with_fault(plan);
                let out = run_distributed(&records, &cfg);
                let got = sorted_keys(&out.pairs);
                prop_assert_eq!(
                    got.windows(2).filter(|w| w[0] == w[1]).count(),
                    0,
                    "duplicate pairs: strategy={} local={} restarts={}",
                    strategy.name(), local.name(), out.report.total_restarts()
                );
                prop_assert_eq!(
                    &got, &expect,
                    "lost or spurious pairs: strategy={} local={} restarts={}",
                    strategy.name(), local.name(), out.report.total_restarts()
                );
            }
        }
    }

    /// Several crashes across different tasks — including a crash before
    /// the task ever processed input and repeated crashes of one task —
    /// still recover exactly.
    #[test]
    fn multiple_crashes_recover_to_exact_results(
        profile in profile_strategy(),
        seed in 0u64..10_000,
        tau in 0.55f64..0.9,
        fault_seed in 0u64..1_000_000,
        local_idx in 0usize..LOCALS.len(),
        strat_idx in 0usize..4,
    ) {
        let k = 4;
        let records = StreamGenerator::new(profile, seed).take_records(200);
        let join = JoinConfig {
            threshold: Threshold::jaccard(tau),
            window: Window::Count(80),
        };
        let mut naive = NaiveJoiner::new(join);
        let expect = sorted_keys(&run_stream(&mut naive, &records));

        let strategy = strategies(k)[strat_idx].clone();
        let local = LOCALS[local_idx];
        let plan = FaultPlan::new()
            .crash_seeded("joiner", k, 150, fault_seed)
            .crash_seeded("joiner", k, 150, fault_seed.wrapping_add(1))
            .crash("joiner", (fault_seed % k as u64) as usize, 0);
        let cfg = threads_64(k, join, local, strategy.clone()).with_fault(plan);
        let out = run_distributed(&records, &cfg);
        prop_assert_eq!(
            &sorted_keys(&out.pairs), &expect,
            "strategy={} local={} restarts={}",
            strategy.name(), local.name(), out.report.total_restarts()
        );
    }

    /// Full chaos composition: every launcher→node link drops, duplicates
    /// and delays under seeded dice (masked by the session layer) while a
    /// supervised node kill also fires — the result multiset must still
    /// equal the fault-free naive ground truth for every strategy, across
    /// local algorithms and window kinds.
    #[test]
    fn link_faults_and_crashes_compose_to_exact_results(
        profile in profile_strategy(),
        seed in 0u64..10_000,
        tau in 0.55f64..0.9,
        k in 2usize..5,
        window_kind in 0usize..3,
        fault_seed in 0u64..1_000_000,
        chaos_seed in 0u64..1_000_000,
        local_idx in 0usize..LOCALS.len(),
    ) {
        let records = StreamGenerator::new(profile, seed).take_records(150);
        let window = match window_kind {
            0 => Window::Unbounded,
            1 => Window::Count(60),
            _ => Window::TimeMs(40),
        };
        let join = JoinConfig { threshold: Threshold::jaccard(tau), window };
        let mut naive = NaiveJoiner::new(join);
        let expect = sorted_keys(&run_stream(&mut naive, &records));
        let local = LOCALS[local_idx];

        let outs = with_deadline(CASE_DEADLINE, move || {
            strategies(k).map(|strategy| {
                let cfg =
                    chaotic_cluster(k, join, local, strategy.clone(), fault_seed, chaos_seed);
                (strategy, run_cluster(&records, &cfg))
            })
        });
        for (strategy, out) in outs {
            let got = sorted_keys(&out.pairs);
            prop_assert_eq!(
                got.windows(2).filter(|w| w[0] == w[1]).count(),
                0,
                "duplicate pairs under chaos: strategy={} local={} retransmissions={}",
                strategy.name(), local.name(), out.retransmissions
            );
            prop_assert_eq!(
                &got, &expect,
                "lost or spurious pairs under chaos: strategy={} local={} respawns={} \
                 retransmissions={} dup_results_dropped={}",
                strategy.name(), local.name(), out.health.respawns,
                out.retransmissions, out.dup_results_dropped
            );
        }
    }

    /// Everything at once: epoch checkpointing (random interval), a
    /// supervised node kill, link chaos on every session, and optional
    /// load shedding. A node respawned from the last committed epoch plus
    /// the replay tail must never lose state, and the result must equal
    /// the oracle restricted to the records the run itself chose to shed —
    /// exactly.
    #[test]
    fn checkpointing_composes_with_crash_chaos_and_shedding(
        profile in profile_strategy(),
        seed in 0u64..10_000,
        tau in 0.55f64..0.9,
        k in 2usize..5,
        interval in 8u64..64,
        fault_seed in 0u64..1_000_000,
        chaos_seed in 0u64..1_000_000,
        shed_raw in 0usize..8, // 0..3 → no shedding, else watermark

        local_idx in 0usize..LOCALS.len(),
        strat_idx in 0usize..4,
    ) {
        let records = StreamGenerator::new(profile, seed).take_records(150);
        let shed = (shed_raw >= 3).then_some(shed_raw);
        let join = JoinConfig {
            threshold: Threshold::jaccard(tau),
            window: Window::Count(60),
        };
        let strategy = strategies(k)[strat_idx].clone();
        let mut cfg =
            chaotic_cluster(k, join, LOCALS[local_idx], strategy.clone(), fault_seed, chaos_seed);
        cfg.spec.shed_watermark = shed;
        cfg.spec.checkpoint = Some(CheckpointConfig::in_memory(interval));
        let (records, out) = with_deadline(CASE_DEADLINE, move || {
            let out = run_cluster(&records, &cfg);
            (records, out)
        });
        let expect = sorted_keys(&testkit::self_join_surviving(
            &records,
            &join,
            &out.shed_records,
        ));
        let got = sorted_keys(&out.pairs);
        prop_assert_eq!(
            got.windows(2).filter(|w| w[0] == w[1]).count(),
            0,
            "duplicate pairs: strategy={} local={} epochs={}",
            strategy.name(), LOCALS[local_idx].name(), out.epochs_committed
        );
        prop_assert_eq!(
            &got, &expect,
            "lost or spurious pairs: strategy={} local={} respawns={} epochs={} shed={}",
            strategy.name(), LOCALS[local_idx].name(), out.health.respawns,
            out.epochs_committed, out.shed_records.len()
        );
        // Shedding drops records before they are dispatched (and counted
        // toward the barrier interval), so an epoch is only guaranteed to
        // commit when shedding is off.
        prop_assert!(
            shed.is_some() || out.epochs_committed > 0,
            "no epoch ever committed despite interval {}", interval
        );
    }
}
