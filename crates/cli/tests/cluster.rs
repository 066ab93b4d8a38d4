//! Cross-process cluster tests: the launcher drives real `ssj-node` OS
//! processes over localhost TCP and must be bit-exact with both the
//! reference oracle and the in-process backend — through clean runs,
//! supervised kills of live processes, link chaos, and checkpoint
//! restores that cross a process boundary. Every fault test has a
//! `tcp_batched_*` twin that runs the same scenario with batched `Data`
//! frames (see [`batched_case`]).
//!
//! Cargo builds the `ssj-node` binary for us and hands its path over via
//! `CARGO_BIN_EXE_ssj-node`, so these tests need no manual setup and run
//! on ephemeral loopback ports (the launcher binds 127.0.0.1:0).

use ssj_core::{JoinConfig, Window};
use ssj_distrib::{ClusterBackend, ClusterConfig, LocalAlgo, PartitionMethod, Strategy};
use ssj_partition::LengthPartition;
use ssj_text::{Record, RecordId, TokenId};
use std::path::PathBuf;
use std::time::Duration;
use testkit::{
    cluster_config_for, run_cluster_differential, run_cluster_restore_differential, sorted_keys,
    with_deadline, DifferentialCase,
};

/// Hard per-test timeout: the self-healing failure mode under test is
/// "the cluster hangs", so every fault test runs under a deadline that
/// converts a hang into a named panic instead of a stuck CI job.
const TEST_DEADLINE: Duration = Duration::from_secs(120);

/// The `ssj-node` binary Cargo built alongside this test.
fn tcp_backend() -> ClusterBackend {
    ClusterBackend::Tcp {
        node_bin: PathBuf::from(env!("CARGO_BIN_EXE_ssj-node")),
    }
}

/// Same base case as the in-process differential suite, so each TCP test
/// here has an in-process twin pinned to the identical oracle.
fn base_case() -> DifferentialCase {
    DifferentialCase::new(
        150,
        3,
        JoinConfig::jaccard(0.7),
        LocalAlgo::bundle(),
        Strategy::LengthAuto {
            method: PartitionMethod::LoadAware,
            sample: 50,
        },
    )
}

/// The batched twin of [`base_case`]: eight messages per `Data` frame, and
/// a stream four times as long, so that a wire still sees some fifty data
/// frames and the frame-ordinal windows of the unbatched tests keep their
/// place on it.
fn batched_case() -> DifferentialCase {
    let mut case = base_case().with_dispatch_batch(Some(8));
    case.records = 600;
    case
}

/// What every batched twin also checks: the run really framed batches.
fn assert_batched(out: &testkit::ClusterDifferentialOutcome) {
    let r = &out.result;
    assert!(
        r.routed_messages >= 4 * r.data_frames,
        "{} messages left in {} data frames — nothing was batched",
        r.routed_messages,
        r.data_frames
    );
}

#[test]
fn tcp_cluster_matches_oracle() {
    let out = run_cluster_differential(11, &base_case(), tcp_backend());
    assert!(
        out.pairs > 0,
        "workload produced no pairs — test is vacuous"
    );
    assert_eq!(out.shed, 0);
}

#[test]
fn tcp_cluster_bistream_matches_oracle() {
    let out = run_cluster_differential(5, &base_case().bistream(), tcp_backend());
    assert!(out.pairs > 0, "bistream workload produced no pairs");
}

#[test]
fn tcp_cluster_recovers_from_a_killed_node_process() {
    // The launcher kills a live ssj-node OS process mid-run, respawns it,
    // replays, and the final pair set must still equal the oracle exactly
    // (run_cluster_differential also asserts a restart actually happened).
    let mut case = base_case().with_crash();
    case.join = case.join.with_window(Window::Count(60));
    let out = run_cluster_differential(23, &case, tcp_backend());
    assert!(out.pairs > 0);
}

#[test]
fn tcp_cluster_crash_composes_with_link_chaos() {
    // Kill + seeded link faults (drops, dups, delays, reorders) at once:
    // the at-least-once layer must mask everything bit-exactly.
    let mut case = base_case().with_crash().with_chaos();
    case.join = case.join.with_window(Window::Count(60));
    let out = run_cluster_differential(23, &case, tcp_backend());
    assert!(
        out.result.retransmissions > 0,
        "chaos was requested but nothing was ever retransmitted"
    );
}

#[test]
fn tcp_cluster_checkpointed_crash_matches_oracle() {
    let mut case = base_case().with_crash().with_checkpoints(20);
    case.join = case.join.with_window(Window::Count(60));
    let out = run_cluster_differential(17, &case, tcp_backend());
    assert!(
        out.result.epochs_committed > 0,
        "no epoch ever committed — the checkpoint knob did nothing"
    );
}

#[test]
fn tcp_cluster_restore_crosses_process_boundaries() {
    // Phase one's node processes checkpoint and die with the whole
    // cluster; phase two's brand-new processes restore the snapshots over
    // the wire and owe exactly the post-cut oracle pairs.
    let out = run_cluster_restore_differential(9, &base_case(), tcp_backend());
    assert!(out.cut.is_some(), "phase one committed no epoch");
    assert!(out.pairs > 0, "post-cut suffix produced no pairs");
}

#[test]
fn tcp_batched_cluster_recovers_from_a_killed_node_process() {
    let mut case = batched_case().with_crash_at(100);
    case.join = case.join.with_window(Window::Count(60));
    let out = run_cluster_differential(23, &case, tcp_backend());
    assert!(out.pairs > 0);
    assert_batched(&out);
}

#[test]
fn tcp_batched_kill_with_a_batch_in_flight_resends_it_whole() {
    // Over a real socket a healthy node usually acks what it was sent
    // before SIGKILL reaches it, so "a batch was in flight" has to be
    // arranged: with one node and batches of 32, every data frame carries
    // exactly 32 messages, so the kill horizon of 640 acked messages is
    // the ack of frame 20 — and a stall window holds transmissions 21–30
    // on the launcher's side of the wire. When that ack is read, every
    // frame sent since is unacknowledged and the node has never seen it.
    // The respawned node gets those frames, whole batches under their
    // original seqs, some of them twice (once released by the stall, once
    // retransmitted) — and the result is still the oracle's, pair for
    // pair, asserted inside run_cluster_differential with the restart.
    with_deadline(TEST_DEADLINE, || {
        let mut case = base_case()
            .with_dispatch_batch(Some(ssj_distrib::BATCH_MAX_FRAMES))
            .with_crash_at(640)
            .with_stall(0, 20, 10);
        case.records = 2_000;
        case.k = 1;
        case.join = case.join.with_window(Window::Count(60));
        let out = run_cluster_differential(23, &case, tcp_backend());
        assert!(out.pairs > 0);
        assert_eq!(out.shed, 0);
        let r = &out.result;
        assert_eq!(
            r.routed_messages,
            32 * r.data_frames - 16,
            "2000 = 62 * 32 + 16"
        );
        assert!(r.health.stalled_frames > 0, "stall never fired");
        assert!(
            r.retransmissions > 0,
            "the killed node had nothing in flight"
        );
    });
}

#[test]
fn tcp_batched_crash_composes_with_link_chaos() {
    let mut case = batched_case().with_crash_at(100).with_chaos();
    case.join = case.join.with_window(Window::Count(60));
    let out = run_cluster_differential(23, &case, tcp_backend());
    assert_batched(&out);
    assert!(
        out.result.retransmissions > 0,
        "chaos was requested but nothing was ever retransmitted"
    );
}

#[test]
fn tcp_batched_checkpointed_crash_matches_oracle() {
    let mut case = batched_case().with_crash_at(100).with_checkpoints(20);
    case.join = case.join.with_window(Window::Count(60));
    let out = run_cluster_differential(17, &case, tcp_backend());
    assert_batched(&out);
    assert!(
        out.result.epochs_committed > 0,
        "no epoch ever committed — the checkpoint knob did nothing"
    );
}

#[test]
fn tcp_batched_restore_crosses_process_boundaries() {
    let out = run_cluster_restore_differential(9, &batched_case(), tcp_backend());
    assert!(out.cut.is_some(), "phase one committed no epoch");
    assert!(out.pairs > 0, "post-cut suffix produced no pairs");
}

#[test]
fn tcp_batched_outage_windows_are_masked_exactly() {
    // Stall, one-way and two-way partition on a batched wire: a window
    // holds or drops whole batches, and each must be seen to have fired.
    with_deadline(TEST_DEADLINE, || {
        let stall = batched_case().with_stall(1, 10, 15);
        let out = run_cluster_differential(41, &stall, tcp_backend());
        assert_eq!(out.shed, 0);
        assert_batched(&out);
        assert!(out.result.health.stalled_frames > 0, "stall never fired");

        let one_way = batched_case().with_partition(0, 8, 12, false);
        let out = run_cluster_differential(43, &one_way, tcp_backend());
        assert_eq!(out.shed, 0);
        assert_batched(&out);
        assert!(
            out.result.health.partition_dropped_frames > 0,
            "partition never fired"
        );
        assert!(
            out.result.retransmissions > 0,
            "dropped frames were never retransmitted"
        );

        // 64 messages in flight are some ten frames of eight: the window
        // swallows them and their first retransmission wave at 40 ms, so
        // the wire is still dark when the 80 ms deadline passes, and the
        // respawn's retransmission closes it.
        let two_way = batched_case().with_partition(0, 10, 24, true);
        let out = run_cluster_differential(47, &two_way, tcp_backend());
        assert_eq!(out.shed, 0);
        assert_batched(&out);
        let h = &out.result.health;
        assert!(h.partition_dropped_frames > 0, "partition never fired");
        assert!(h.suspects >= 1, "the detector never fired");
        assert!(h.respawns >= 1, "a suspect node was never respawned");
    });
}

#[test]
fn tcp_batched_corruption_windows_heal_exactly() {
    with_deadline(TEST_DEADLINE, || {
        // A flipped bit in a batch costs the node its checksum and its
        // life; the batch comes again, whole, to its successor.
        let outbound = batched_case().with_corruption(1, 10, 2, false);
        let out = run_cluster_differential(29, &outbound, tcp_backend());
        assert_eq!(out.shed, 0, "healing must not shed");
        assert_batched(&out);
        assert!(
            out.result.health.respawns >= 1,
            "corruption never triggered a healing respawn"
        );

        // Launcher side: the window lands on `Results` and `Ack` frames.
        let inbound = batched_case().with_corruption(0, 12, 2, true);
        let out = run_cluster_differential(37, &inbound, tcp_backend());
        assert_batched(&out);
        assert!(
            out.result.integrity.corrupt_frames >= 1,
            "inbound corruption window never hit a frame"
        );
        assert!(out.result.health.respawns >= 1);
    });
}

#[test]
fn tcp_batched_exhausted_budget_fences_with_exact_shed_accounting() {
    // As unbatched, with one more thing to get right: every record inside
    // a batch that was in flight to the fenced node, or framed for it
    // afterwards, is shed — the shed-adjusted oracle inside
    // run_cluster_differential is exact only if none is missed.
    with_deadline(TEST_DEADLINE, || {
        let mut case = batched_case().with_crash_at(30).with_recovery_budget(0);
        case.join = case.join.with_window(Window::Count(60));
        let out = run_cluster_differential(23, &case, tcp_backend());
        assert_batched(&out);
        assert_eq!(out.result.health.fenced_tasks.len(), 1);
        assert!(out.shed > 0, "a fenced task with no records is vacuous");
        assert_eq!(out.result.health.respawns, 0);
    });
}

#[test]
fn tcp_stall_window_is_masked_exactly() {
    // A lossless stall on a real socket wire: frames freeze, then release
    // in order — nothing may be lost, duplicated, or reordered past the
    // at-least-once layer.
    with_deadline(TEST_DEADLINE, || {
        let case = base_case().with_stall(1, 10, 15);
        let out = run_cluster_differential(41, &case, tcp_backend());
        assert!(out.pairs > 0);
        assert_eq!(out.shed, 0);
        assert!(out.result.health.stalled_frames > 0, "stall never fired");
    });
}

#[test]
fn tcp_one_way_partition_is_masked_exactly() {
    // Outbound frames silently vanish for a window; retransmission under
    // the original seqs must mask the loss bit-exactly.
    with_deadline(TEST_DEADLINE, || {
        let case = base_case().with_partition(0, 8, 12, false);
        let out = run_cluster_differential(43, &case, tcp_backend());
        assert!(out.pairs > 0);
        assert_eq!(out.shed, 0);
        assert!(
            out.result.health.partition_dropped_frames > 0,
            "partition never fired"
        );
        assert!(
            out.result.retransmissions > 0,
            "dropped frames were never retransmitted"
        );
    });
}

#[test]
fn tcp_two_way_partition_trips_the_detector_within_its_bound() {
    // Both directions go dark long enough to outlast `suspect_after`: the
    // heartbeat detector must declare the node suspect, respawn it, and
    // the result must still equal the oracle exactly. The window length
    // (170 transmissions, vs a 64-frame in-flight cap plus one 40ms
    // retransmission wave) keeps the wire dark past the deadline but lets
    // the respawn retransmission close the window.
    with_deadline(TEST_DEADLINE, || {
        let case = base_case().with_partition(0, 10, 170, true);
        let cfg = cluster_config_for(47, &case, tcp_backend());
        let health = cfg.health.expect("outage cases enable the detector");

        let out = run_cluster_differential(47, &case, tcp_backend());
        assert_eq!(out.shed, 0);
        let h = &out.result.health;
        assert!(h.suspects >= 1, "the detector never fired");
        assert!(h.respawns >= 1, "a suspect node was never respawned");

        // Detection latency = observed silence at suspicion: at least the
        // configured deadline, at most the deadline plus one heartbeat
        // interval and scheduling slack for the detector pass itself.
        let bound = health.suspect_after + health.heartbeat_interval + Duration::from_millis(250);
        assert!(h.detection_latency.count() >= 1);
        assert!(
            h.detection_latency.max() <= bound,
            "detection latency {:?} exceeds bound {:?}",
            h.detection_latency.max(),
            bound
        );
        assert!(h.detection_latency.quantile(0.0) >= health.suspect_after);

        // The same histogram must surface in the exported metrics.
        let snap = out.result.metrics_snapshot();
        assert!(
            snap.names().contains(&"dssj_cluster_detection_latency"),
            "detection latency missing from the metrics snapshot"
        );
    });
}

#[test]
fn tcp_exhausted_budget_fences_with_exact_shed_accounting() {
    // Budget zero: the first kill fences the node instead of respawning
    // it. run_cluster_differential compares against the shed-adjusted
    // oracle, so passing proves the degraded answer is exactly the join
    // over surviving records — never a hang, never a silent partial set.
    with_deadline(TEST_DEADLINE, || {
        // A longer stream and an early kill horizon: over real sockets ack
        // draining is bursty, so the default mid-stream horizon can land
        // after the last record was already dispatched and acked, leaving
        // nothing to shed and proving nothing. Fencing at ack 30 of a
        // 400-record stream guarantees records remain behind the fence on
        // every interleaving.
        let mut case = base_case().with_crash_at(30).with_recovery_budget(0);
        case.records = 400;
        case.join = case.join.with_window(Window::Count(60));
        let out = run_cluster_differential(23, &case, tcp_backend());
        assert_eq!(out.result.health.fenced_tasks.len(), 1);
        assert!(out.shed > 0, "a fenced task with no records is vacuous");
        assert_eq!(out.result.health.respawns, 0);
    });
}

#[test]
fn tcp_crash_within_budget_stays_exact_and_unfenced() {
    with_deadline(TEST_DEADLINE, || {
        let mut case = base_case().with_crash().with_recovery_budget(2);
        case.join = case.join.with_window(Window::Count(60));
        let out = run_cluster_differential(23, &case, tcp_backend());
        assert_eq!(out.shed, 0, "within budget nothing may be shed");
        assert!(out.result.health.fenced_tasks.is_empty());
    });
}

#[test]
fn tcp_golden_digests_survive_partitions_under_logical_time() {
    // Wire digests fold first-transmission data bytes only — before the
    // chaos gate, excluding retransmissions and heartbeats — so neither a
    // partition window nor detector timing may perturb them: two runs
    // over real sockets must stay byte-identical.
    with_deadline(TEST_DEADLINE, || {
        let case = base_case().with_partition(1, 8, 12, false);
        let records = testkit::differential_records(53, case.records);
        let digests_for = || {
            let mut cfg = cluster_config_for(53, &case, tcp_backend());
            cfg.logical_time = true;
            ssj_distrib::run_cluster(&records, &cfg)
                .wire_digests
                .expect("logical-time runs always produce wire digests")
        };
        let a = digests_for();
        let b = digests_for();
        assert_eq!(a, b, "partitioned TCP replay diverged under logical time");
    });
}

#[test]
fn tcp_corruption_window_heals_to_the_clean_run_bit_exactly() {
    // A scripted single-bit flip on a real socket wire: the node detects
    // the checksum mismatch and dies, the detector respawns it with
    // session resume, and the healed result must equal both the oracle
    // (asserted inside run_cluster_differential) and a clean twin run of
    // the identical seed, bit-exactly.
    with_deadline(TEST_DEADLINE, || {
        let corrupt = base_case().with_corruption(1, 10, 2, false);
        let out = run_cluster_differential(29, &corrupt, tcp_backend());
        assert!(out.pairs > 0);
        assert_eq!(out.shed, 0, "healing must not shed");
        assert!(
            out.result.health.respawns >= 1,
            "corruption never triggered a healing respawn"
        );

        let clean = run_cluster_differential(29, &base_case(), tcp_backend());
        assert_eq!(clean.result.health.respawns, 0);
        assert_eq!(
            sorted_keys(&out.result.pairs),
            sorted_keys(&clean.result.pairs),
            "healed run diverged from its clean twin"
        );
    });
}

#[test]
fn tcp_inbound_corruption_is_counted_and_healed() {
    // The launcher-side flavor: a frame from the node is flipped on
    // receive. The launcher must classify it (corrupt_frames), discard
    // the poisoned incarnation, and heal by respawn — visible in the
    // exported metrics.
    with_deadline(TEST_DEADLINE, || {
        let case = base_case().with_corruption(0, 12, 2, true);
        let out = run_cluster_differential(37, &case, tcp_backend());
        assert!(out.pairs > 0);
        assert!(
            out.result.integrity.corrupt_frames >= 1,
            "inbound corruption window never hit a frame"
        );
        assert!(out.result.health.respawns >= 1);
        let snap = out.result.metrics_snapshot();
        assert!(
            snap.names().contains(&"dssj_cluster_corrupt_frames_total"),
            "corrupt-frame counter missing from the metrics snapshot"
        );
    });
}

#[test]
fn tcp_and_in_process_backends_are_equivalent() {
    // The tentpole equivalence claim, head to head: same seed, same case,
    // both backends — identical pair sets (each is separately pinned to
    // the oracle inside run_cluster_differential; this closes the loop).
    let case = base_case();
    let tcp = run_cluster_differential(31, &case, tcp_backend());
    let inproc = run_cluster_differential(31, &case, ClusterBackend::InProcess);
    assert_eq!(
        sorted_keys(&tcp.result.pairs),
        sorted_keys(&inproc.result.pairs)
    );
}

#[test]
fn tcp_golden_digests_match_in_process_and_replay_exactly() {
    // Golden-transcript property: under logical time, each wire's
    // outbound data stream is byte-deterministic, so its FNV-1a digest
    // must be identical run-to-run over real sockets AND across backends.
    // (Ack/result interleaving stays nondeterministic — see the
    // determinism contract in ssj_distrib::cluster's module docs.)
    // Batched, the stream also fixes where each batch is cut, which may
    // depend on the record count alone, never on when an ack arrived.
    for case in [base_case(), batched_case()] {
        let records = testkit::differential_records(41, case.records);

        let digests_for = |backend: ClusterBackend| {
            let mut cfg = cluster_config_for(41, &case, backend);
            cfg.logical_time = true;
            ssj_distrib::run_cluster(&records, &cfg)
                .wire_digests
                .expect("logical-time runs always produce wire digests")
        };

        let tcp_a = digests_for(tcp_backend());
        let tcp_b = digests_for(tcp_backend());
        let inproc = digests_for(ClusterBackend::InProcess);
        assert_eq!(tcp_a, tcp_b, "TCP replay diverged under logical time");
        assert_eq!(tcp_a, inproc, "TCP and in-process transcripts diverged");
        assert_eq!(tcp_a.len(), case.k);
    }
}

#[test]
fn tcp_clean_run_coalesces_frames_and_never_retransmits() {
    // The flush contract, pinned: on a clean run the launcher's frames
    // leave in batches (not one write per frame), nothing waits in a
    // batch long enough to be retransmitted, and batching changes neither
    // the result nor a single outbound byte.
    with_deadline(TEST_DEADLINE, || {
        let mut case = base_case();
        case.records = 6_000;
        case.join = case.join.with_window(Window::Count(500));
        let records = testkit::differential_records(59, case.records);
        let run = |backend: ClusterBackend, batch: Option<usize>| {
            let mut cfg = cluster_config_for(59, &case, backend);
            cfg.logical_time = true;
            cfg.dispatch_batch = batch;
            ssj_distrib::run_cluster(&records, &cfg)
        };
        let tcp = run(tcp_backend(), None);
        let inproc = run(ClusterBackend::InProcess, None);

        assert!(!tcp.pairs.is_empty(), "workload produced no pairs");
        assert_eq!(sorted_keys(&tcp.pairs), sorted_keys(&inproc.pairs));
        assert_eq!(tcp.wire_digests, inproc.wire_digests);
        assert_eq!(tcp.retransmissions, 0, "a batched frame went stale");
        assert!(tcp.frames_sent >= case.records as u64);
        assert!(
            tcp.frames_sent >= 8 * tcp.wire_flushes,
            "{} frames left in {} flushes",
            tcp.frames_sent,
            tcp.wire_flushes
        );
        assert_eq!(
            (inproc.frames_sent, inproc.wire_flushes),
            (0, 0),
            "channel wires do not batch"
        );
        assert_eq!(
            tcp.routed_messages, tcp.data_frames,
            "unbatched, a data frame is one message"
        );

        // The same run at the recommended batch: the frames the write
        // batcher used to coalesce are now one sealed frame to begin with,
        // and still nothing goes stale or comes twice.
        let batched = run(tcp_backend(), Some(ssj_distrib::BATCH_MAX_FRAMES));
        let batched_inproc = run(
            ClusterBackend::InProcess,
            Some(ssj_distrib::BATCH_MAX_FRAMES),
        );
        assert_eq!(sorted_keys(&batched.pairs), sorted_keys(&tcp.pairs));
        assert_eq!(batched.wire_digests, batched_inproc.wire_digests);
        assert_ne!(batched.wire_digests, tcp.wire_digests);
        assert_eq!(batched.routed_messages, tcp.routed_messages);
        assert!(
            batched.routed_messages >= 8 * batched.data_frames,
            "{} messages left in {} data frames",
            batched.routed_messages,
            batched.data_frames
        );
        assert_eq!(batched.retransmissions, 0, "a batched frame went stale");
        assert_eq!(batched.dup_results_dropped, 0);

        let snap = tcp.metrics_snapshot();
        for name in [
            "dssj_cluster_frames_sent_total",
            "dssj_cluster_wire_flushes_total",
            "dssj_cluster_routed_messages_total",
            "dssj_cluster_data_frames_total",
        ] {
            assert!(
                snap.names().contains(&name),
                "{name} missing from the snapshot"
            );
        }
    });
}

#[test]
fn tcp_sparse_links_are_flushed_before_their_frames_go_stale() {
    // Nearly every record has length 10 and lives on task 0; one in fifty
    // is long and lands on task 1 or 2, whose links therefore never reach
    // a batch threshold on their own. Only the every-32-records flush
    // stands between those frames and the 40 ms retransmission timer, so
    // the contract under test is the flush itself: the launcher never
    // dispatches more than `BATCH_MAX_FRAMES` records without one.
    with_deadline(TEST_DEADLINE, || {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move |below: u32| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as u32 % below
        };
        let records: Vec<Record> = (0..60_000u64)
            .map(|id| {
                let len = match id % 100 {
                    0 => 40,
                    50 => 90,
                    _ => 10,
                };
                // A narrow vocabulary per length class, so near-duplicates
                // (and result pairs) do occur.
                let mut tokens: Vec<u32> = (0..len as u32 + 3).collect();
                while tokens.len() > len {
                    tokens.remove(next(tokens.len() as u32) as usize);
                }
                let tokens = tokens.into_iter().map(TokenId).collect();
                Record::from_sorted(RecordId(id), id, tokens)
            })
            .collect();

        let join = JoinConfig::jaccard(0.7).with_window(Window::Count(200));
        let mut cfg = ClusterConfig::recommended(3, join, tcp_backend());
        cfg.strategy = Strategy::Length(LengthPartition::from_uppers(vec![20, 60, 120]));
        let out = ssj_distrib::run_cluster(&records, &cfg);

        let handled: Vec<u64> = out.joiners.iter().map(|j| j.stats.probed).collect();
        let total: u64 = handled.iter().sum();
        assert!(
            handled[0] * 100 > total * 95,
            "input is not skewed enough to test anything: {handled:?}"
        );
        assert!(handled[1] > 0 && handled[2] > 0, "sparse links unused");
        assert!(!out.pairs.is_empty(), "workload produced no pairs");
        assert!(
            out.unflushed_records_high_water <= ssj_distrib::BATCH_MAX_FRAMES,
            "{} records were dispatched between two all-link flushes",
            out.unflushed_records_high_water
        );
        // The wall-clock consequence is only asserted where a slow host
        // cannot be what trips the timer: a debug-build launcher on a
        // loaded 2-vCPU machine can take 40 ms over 32 records by itself.
        if !cfg!(debug_assertions) {
            assert_eq!(out.retransmissions, 0, "a sparse link's frame went stale");
            assert_eq!(out.dup_results_dropped, 0);
        }
    });
}
