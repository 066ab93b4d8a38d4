//! testkit — the differential oracle and simulation test harness.
//!
//! Production joiners are fast because they filter, batch, shed and
//! recover; proving they are also *correct* needs a reference that does
//! none of that. This crate provides:
//!
//! * [`oracle`] — a naive O(n²) reference join over windowed streams
//!   (self-join and bi-stream) sharing only the acceptance and window
//!   predicates with the real joiners, plus exact shed-adjusted recall
//!   accounting for degraded runs;
//! * [`differential`] — [`run_differential`]: execute any distribution
//!   strategy × local algorithm × window configuration under stormlite's
//!   deterministic simulation ([`stormlite::sim`]) and assert the result
//!   equals the oracle exactly — with crashes, checkpoints and load
//!   shedding in play. A failing seed replays the identical interleaving.
//! * [`cluster`] — [`run_cluster_differential`]: execute the same cases on
//!   the real launcher/node transport ([`ssj_distrib::cluster`]) — threads
//!   or `ssj-node` OS processes over localhost TCP — against the same
//!   oracle, closing the sim == in-process == cross-process triangle, and
//!   adding what only those sessions can suffer: lossy links, outages and
//!   process kills.
//! * [`transcript`] — golden-transcript recording and diffing: a frozen
//!   reference run whose committed transcript must replay byte-identically.
//! * [`fault`] — [`FaultStore`]: a checkpoint-store wrapper injecting
//!   deterministic storage corruption (bit-rot, torn writes, dropped
//!   commits, read errors) below the coordinator's checksum layer, so
//!   integrity tests can prove corruption is detected and healed, never
//!   panicked on.
//!
//! Seeds drive everything (workload, interleaving, faults), so a failure
//! report is a complete reproduction recipe: the seed plus the case.

#![warn(missing_docs)]

pub mod cluster;
pub mod differential;
pub mod fault;
pub mod oracle;
pub mod transcript;

pub use cluster::{
    assert_pairs_equal, cluster_config_for, run_cluster_differential,
    run_cluster_differential_relaxed, run_cluster_exhausting_budget,
    run_cluster_restore_differential, ClusterDifferentialOutcome,
};
pub use fault::{FaultHits, FaultStore, StoreFault, ThreadLogStore};

pub use differential::{
    differential_profile, differential_records, run_differential, run_restore_differential,
    seeded_crash, seeded_outage, DifferentialCase, DifferentialOutcome, RestoreOutcome,
};
pub use oracle::{
    bistream_join, overlap, self_join, self_join_surviving, shed_recall, sorted_keys,
};
pub use transcript::{
    diff, reference_checkpoint_run, reference_run, reference_trace_run, reference_traceable_run,
};

/// Runs `f` on a worker thread and panics if it has not finished within
/// `limit` — the hard timeout guard for self-healing tests, where the
/// failure mode under test is precisely "the cluster hangs forever".
///
/// A plain `#[test]` that deadlocks stalls the whole suite until the CI
/// harness kills the process with no indication of *which* test hung;
/// wrapping the body here converts a hang into a named, attributable
/// panic. On timeout the worker thread is leaked (Rust has no safe thread
/// kill) — acceptable in a test process that is about to die anyway.
///
/// # Panics
///
/// Panics if `f` exceeds `limit` or itself panics (the worker's panic is
/// resurfaced on the caller's thread with the original message).
pub fn with_deadline<T: Send + 'static>(
    limit: std::time::Duration,
    f: impl FnOnce() -> T + Send + 'static,
) -> T {
    let (tx, rx) = std::sync::mpsc::channel();
    let worker = std::thread::spawn(move || {
        // Send may fail if the caller already timed out and dropped the
        // receiver; nothing to do with the result then.
        let _ = tx.send(std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)));
    });
    match rx.recv_timeout(limit) {
        Ok(Ok(value)) => {
            let _ = worker.join();
            value
        }
        Ok(Err(panic)) => {
            let _ = worker.join();
            std::panic::resume_unwind(panic)
        }
        Err(_) => panic!("test body exceeded its {limit:?} deadline — the cluster likely hung"),
    }
}
