//! End-to-end data-integrity composition: seeded storage faults
//! (bit-rot, torn writes, dropped commits, read errors) and wire
//! corruption, composed with seeded outages, checkpointing and
//! whole-cluster restore on the real cluster transport.
//!
//! The contract under test is the PR-10 integrity invariant: every byte
//! that crosses a wire or a disk is checksummed, and a failed check is
//! *classified and healed*, never a panic and never a silently wrong
//! answer. Wire corruption heals by respawn + session resume under the
//! original seqs (bit-exact vs the oracle). Storage
//! corruption heals by verified restore: the newest fully-verified epoch
//! wins, corrupt epochs are quarantined, and an all-corrupt store
//! degrades to exact recomputation from the full source.

use dssj::core::{JoinConfig, Window};
use dssj::distrib::{
    load_latest_verified, run_cluster, run_distributed, scrub, CheckpointConfig, ClusterBackend,
    DistributedJoinConfig, Fault, FaultKind, LocalAlgo, MemStore, PartitionMethod, SnapshotStore,
    Strategy,
};
use std::sync::Arc;
use std::time::Duration;
use testkit::{
    assert_pairs_equal, cluster_config_for, differential_records, oracle,
    run_cluster_differential_relaxed, with_deadline, DifferentialCase, FaultStore, StoreFault,
};

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

/// One seeded storage-fault restore case: phase one checkpoints into a
/// fault-injected store (one seeded outage on a wire), the whole cluster dies,
/// seed-derived corruption is armed, and the restored phase-two cluster
/// must produce exactly the post-cut oracle pairs for *whichever* cut it
/// verifiably restored — including the empty cut when every epoch is
/// corrupt.
fn storage_fault_case(seed: u64) {
    let k = 3usize;
    let tau = 0.6 + (seed % 5) as f64 * 0.05;
    let interval = 10 + seed % 20;
    let case = base_case(150, k, tau, false).with_checkpoints(interval);
    let records = differential_records(seed, case.records);

    let store = Arc::new(FaultStore::new(MemStore::new()));
    let dyn_store: Arc<dyn SnapshotStore> = store.clone();

    let fault_kind = seed % 4;
    if fault_kind == 3 {
        // Torn writes tear one task's part in *every* epoch phase one
        // will commit: the whole store ends up corrupt, and restore must
        // degrade to exact recomputation, not panic or half-restore.
        for epoch in 1..=32 {
            store.inject(StoreFault::TornWrite {
                epoch,
                part: "joiner-0".to_owned(),
                keep: (seed % 7) as usize,
            });
        }
    }

    let faulty = case.clone().with_seeded_outage(seed);
    let mut phase1 = cluster_config_for(seed, &faulty, ClusterBackend::InProcess);
    phase1.spec.checkpoint = Some(CheckpointConfig::new(interval, Arc::clone(&dyn_store)));
    let prefix = &records[..records.len() * 3 / 5];
    let _ = run_cluster(prefix, &phase1);

    let committed = store.epochs().unwrap();
    assert!(
        !committed.is_empty() || fault_kind == 3,
        "seed {seed}: phase one committed no epoch at interval {interval}"
    );
    if let Some(&newest) = committed.last() {
        match fault_kind {
            0 => store.inject(StoreFault::BitRot {
                epoch: newest,
                part: Some(format!("joiner-{}", seed as usize % k)),
                offset: (seed as usize).wrapping_mul(13),
            }),
            1 => store.inject(StoreFault::BitRot {
                epoch: newest,
                part: None,
                offset: (seed as usize).wrapping_mul(29),
            }),
            2 => store.inject(StoreFault::ReadError {
                epoch: newest,
                part: Some(format!("joiner-{}", seed as usize % k)),
            }),
            _ => {}
        }
    }

    let mut phase2 = cluster_config_for(seed, &case, ClusterBackend::InProcess);
    phase2.spec.checkpoint = None;
    phase2.spec.restore_from = Some(Arc::clone(&dyn_store));
    let restored = run_cluster(&records, &phase2);

    // Whatever cut the verified restore settled on, the result owes
    // exactly the post-cut oracle pairs.
    let floor = restored.restored_cut.unwrap_or(0);
    let expect: Vec<_> = oracle::self_join_surviving(&records, &case.join, &[])
        .into_iter()
        .filter(|m| m.later.0 > floor)
        .collect();
    assert_pairs_equal(seed, &restored.pairs, expect, "verified restore");

    // The fault must have engaged and been *accounted*: a corrupted
    // newest epoch is quarantined (fallback or full recompute), torn
    // writes corrupt every epoch.
    let hits = store.hits();
    match fault_kind {
        0 | 1 => {
            assert!(hits.bit_rot > 0, "seed {seed}: bit-rot never read");
            assert!(
                restored.integrity.quarantined_epochs >= 1,
                "seed {seed}: rotten epoch was not quarantined"
            );
        }
        2 => {
            assert!(hits.read_errors > 0, "seed {seed}: read error never hit");
            assert!(
                restored.integrity.quarantined_epochs >= 1,
                "seed {seed}: unreadable epoch was not quarantined"
            );
        }
        _ => {
            if !committed.is_empty() {
                assert!(hits.torn_writes > 0, "seed {seed}: torn write never fired");
                assert_eq!(
                    restored.restored_cut, None,
                    "seed {seed}: all epochs torn, yet something restored"
                );
                assert!(
                    restored.integrity.quarantined_epochs as usize >= committed.len(),
                    "seed {seed}: only {} of {} torn epochs quarantined",
                    restored.integrity.quarantined_epochs,
                    committed.len()
                );
            }
        }
    }
    // Fallback depth is only nonzero when an older epoch actually took
    // over; with a single committed epoch the scan degrades to recompute.
    if restored.restored_cut.is_some() && fault_kind != 3 {
        assert!(
            restored.integrity.restore_fallback_depth >= 1,
            "seed {seed}: restored past a corrupt newest epoch with zero fallback depth"
        );
    }
}

/// 16-seed deterministic sweep (mirrored by the CI `integrity` job) over
/// the four storage-fault kinds × a seeded wire outage × checkpoint ×
/// whole-cluster restore.
#[test]
fn storage_fault_sweep_restores_verified_or_recomputes_exactly() {
    for seed in 0..16 {
        with_deadline(CASE_DEADLINE, move || storage_fault_case(seed));
    }
}

/// A store whose every part of epochs 1..=32 rots and fails to read, so
/// the run can checkpoint into it but nothing can be restored from it.
fn unreadable_store(k: usize) -> Arc<FaultStore<MemStore>> {
    let store = Arc::new(FaultStore::new(MemStore::new()));
    for epoch in 1..=32 {
        for task in 0..k {
            let part = Some(format!("joiner-{task}"));
            store.inject(StoreFault::BitRot {
                epoch,
                part: part.clone(),
                offset: 77,
            });
            store.inject(StoreFault::ReadError { epoch, part });
        }
    }
    store
}

/// A joiner that crashes mid-run rebuilds from its replay buffer alone:
/// checkpoints are durability, never read while the run that wrote them
/// is live. Both engines crash joiner 1 after its message 150, once
/// several epochs committed into a store that can return nothing
/// readable; the pairs must equal
/// the crash-free run's, no integrity counter may move, and the store
/// must never have served a faulty read.
#[test]
fn in_run_recovery_never_reads_the_checkpoint_store() {
    let seed = 7u64;
    let k = 3usize;
    let case = base_case(300, k, 0.6, true);
    let records = differential_records(seed, case.records);
    let checkpointing = |store: &Arc<FaultStore<MemStore>>| {
        let store: Arc<dyn SnapshotStore> = store.clone();
        Some(CheckpointConfig::new(20, store))
    };

    let crashed = case.clone().with_fault(Fault::crash(1, 150));

    // Simulated threads engine.
    let sim = |case: &DifferentialCase, store: &Arc<FaultStore<MemStore>>| {
        let mut cfg = DistributedJoinConfig::new(case.spec(seed)).with_sim(seed);
        cfg.spec.checkpoint = checkpointing(store);
        run_distributed(&records, &cfg)
    };
    let clean = sim(&case, &Arc::new(FaultStore::new(MemStore::new())));
    let store = unreadable_store(k);
    let out = sim(&crashed, &store);
    assert_eq!(out.report.total_restarts(), 1, "sim: the crash fired");
    assert!(out.joiners[1].replayed > 0, "sim: nothing replayed");
    assert!(store.epochs().unwrap().len() >= 5, "sim: too few epochs");
    assert_pairs_equal(seed, &out.pairs, clean.pairs, "sim crash");
    assert!(
        out.report.integrity.is_clean(),
        "sim: {:?}",
        out.report.integrity
    );
    let hits = store.hits();
    assert_eq!((hits.bit_rot, hits.read_errors), (0, 0), "sim: store read");

    // In-process cluster.
    with_deadline(CASE_DEADLINE, move || {
        let cluster = |case: &DifferentialCase, store: &Arc<FaultStore<MemStore>>| {
            let mut cfg = cluster_config_for(seed, case, ClusterBackend::InProcess);
            cfg.spec.checkpoint = checkpointing(store);
            run_cluster(&records, &cfg)
        };
        let clean = cluster(&case, &Arc::new(FaultStore::new(MemStore::new())));
        let store = unreadable_store(k);
        let out = cluster(&crashed, &store);
        assert_eq!(out.joiners[1].incarnation, 1, "cluster: the kill fired");
        assert!(out.joiners[1].replayed > 0, "cluster: nothing replayed");
        assert!(
            store.epochs().unwrap().len() >= 5,
            "cluster: too few epochs"
        );
        assert_pairs_equal(seed, &out.pairs, clean.pairs, "cluster kill");
        assert!(out.integrity.is_clean(), "cluster: {:?}", out.integrity);
        let hits = store.hits();
        assert_eq!(
            (hits.bit_rot, hits.read_errors),
            (0, 0),
            "cluster: store read"
        );
    });
}

/// Dropped commits (crash-before-rename on every epoch): the store holds
/// parts but no manifest, so restore finds nothing and the run recomputes
/// the full stream exactly.
#[test]
fn dropped_commits_leave_nothing_to_restore_and_recompute_exactly() {
    with_deadline(CASE_DEADLINE, move || {
        let seed = 7u64;
        let case = base_case(120, 2, 0.7, false).with_checkpoints(12);
        let records = differential_records(seed, case.records);
        let store = Arc::new(FaultStore::new(MemStore::new()));
        for epoch in 1..=32 {
            store.inject(StoreFault::CrashBeforeCommit { epoch });
        }
        let dyn_store: Arc<dyn SnapshotStore> = store.clone();
        let mut phase1 = cluster_config_for(seed, &case, ClusterBackend::InProcess);
        phase1.spec.checkpoint = Some(CheckpointConfig::new(12, Arc::clone(&dyn_store)));
        let _ = run_cluster(&records[..72], &phase1);
        assert!(
            store.hits().dropped_commits > 0,
            "no commit was ever attempted"
        );
        assert_eq!(store.epochs().unwrap(), Vec::<u64>::new());

        let mut phase2 = cluster_config_for(seed, &case, ClusterBackend::InProcess);
        phase2.spec.checkpoint = None;
        phase2.spec.restore_from = Some(dyn_store);
        let restored = run_cluster(&records, &phase2);
        assert_eq!(restored.restored_cut, None);
        let expect = oracle::self_join_surviving(&records, &case.join, &[]);
        assert_pairs_equal(
            seed,
            &restored.pairs,
            expect,
            "recompute after lost commits",
        );
    });
}

/// There is one store format: a manifest or part without the `CRC2`
/// envelope is rot like any other, not a legacy payload to pass through.
/// `scrub` must report it corrupt and `load_latest_verified` must skip
/// its epoch for the newest fully-enveloped one.
#[test]
fn envelope_less_payloads_are_quarantined_like_any_rot() {
    with_deadline(CASE_DEADLINE, move || {
        let seed = 21u64;
        let case = base_case(150, 3, 0.7, false);
        let records = differential_records(seed, case.records);
        let store: Arc<dyn SnapshotStore> = Arc::new(MemStore::new());
        let mut cfg = cluster_config_for(seed, &case, ClusterBackend::InProcess);
        cfg.spec.checkpoint = Some(CheckpointConfig::new(20, Arc::clone(&store)));
        let _ = run_cluster(&records, &cfg);
        let epochs = store.epochs().unwrap();
        assert!(
            epochs.len() >= 3,
            "need three committed epochs to strip two"
        );
        let (newest, second) = (epochs[epochs.len() - 1], epochs[epochs.len() - 2]);

        // Strip the 8-byte envelope: the payloads underneath are intact.
        let manifest = store.manifest(newest).unwrap().unwrap();
        store.commit(newest, &manifest[8..]).unwrap();
        let part = store.get(second, "joiner-1").unwrap().unwrap();
        store.put(second, "joiner-1", &part[8..]).unwrap();

        let report = scrub(store.as_ref()).unwrap();
        let corrupt: Vec<u64> = report
            .epochs
            .iter()
            .filter(|e| !e.ok)
            .map(|e| e.epoch)
            .collect();
        assert_eq!(corrupt, vec![second, newest]);

        let scan = load_latest_verified(store.as_ref()).unwrap();
        assert_eq!(scan.fallback_depth(), 2);
        let image = scan.image.expect("an older epoch still verifies");
        assert_eq!(image.epoch, epochs[epochs.len() - 3]);
    });
}

/// Wire corruption × checkpointing: a scripted single-bit-flip window on
/// one node's wire must be detected by the frame checksum, the node
/// respawned and resumed, and the result bit-exact against the oracle —
/// the differential comparison inside the runner enforces exactness, the
/// assertions here prove the corruption actually fired and was counted.
#[test]
fn wire_corruption_heals_to_a_bit_exact_result() {
    for seed in 0..8u64 {
        let inbound = seed % 2 == 1;
        let case = base_case(150, 3, 0.6 + (seed % 4) as f64 * 0.06, false)
            .with_checkpoints(15)
            .with_fault(Fault {
                task: seed as usize % 3,
                after: 5 + seed % 20,
                kind: FaultKind::Corrupt {
                    len: 1 + seed % 3,
                    inbound,
                },
            });
        let out = with_deadline(CASE_DEADLINE, move || {
            run_cluster_differential_relaxed(seed, &case, ClusterBackend::InProcess)
        });
        if inbound {
            // Launcher-side detection: the poisoned frame is counted,
            // the incarnation discarded and respawned.
            assert!(
                out.result.integrity.corrupt_frames >= 1,
                "seed {seed}: inbound corruption window never hit a frame"
            );
        }
        // Either direction heals the same way: the corrupt incarnation
        // dies (node-side checksum error or launcher-side poisoning) and
        // is respawned with session resume. No other fault is scripted,
        // so a respawn is proof the corruption fired and was detected.
        assert!(
            out.result.health.respawns >= 1,
            "seed {seed}: corrupt frame did not trigger a healing respawn"
        );
        assert_eq!(out.shed, 0, "seed {seed}: healing must not shed");
    }
}
