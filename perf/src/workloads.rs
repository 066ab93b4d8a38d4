//! The six workloads: how each one's records are made, what the expected
//! pairs are, how one repetition runs through the program's public entry
//! point, and how a repetition's pairs are scored against the reference.
//!
//! Every workload joins under Jaccard with k = 4 joiners, the bundle local
//! algorithm and a load-aware length partition calibrated on the first
//! 10 000 records — the configuration the paper recommends — so they
//! differ only in the input properties that move the bottleneck: record
//! length profile, window size, result density, engine, checkpointing.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ssj_core::join::run_stream;
use ssj_core::{JoinConfig, MatchPair, NaiveJoiner, PpJoinJoiner, Window};
use ssj_distrib::{
    run_cluster, run_distributed, CheckpointConfig, ClusterBackend, ClusterConfig, ClusterResult,
    DistributedJoinConfig, DistributedJoinResult, FileStore, TraceConfig,
};
use ssj_text::Record;
use ssj_workloads::{DatasetProfile, StreamGenerator};

/// Joiner parallelism of every workload.
pub const K: usize = 4;
/// Records the reference join is cross-checked on against the O(n²) join.
pub const NAIVE_PREFIX: usize = 3_000;
/// Checkpoint interval (records per epoch) of the checkpointing workload.
const CKPT_INTERVAL: u64 = 10_000;
/// A repetition slower than this fails all its operations.
pub const REP_TIMEOUT: Duration = Duration::from_secs(60);

/// Which public entry point a workload drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// `run_distributed`, one OS thread per task.
    Threads,
    /// `run_cluster` over localhost TCP with `K` `ssj-node` processes.
    Tcp,
}

/// One workload definition.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    profile: fn() -> DatasetProfile,
    /// Records per repetition.
    pub n: usize,
    tau: f64,
    window: Window,
    pub engine: Engine,
    pub checkpoint: bool,
}

/// The workloads, in `BENCHMARK.json` order. Record counts are sized so a
/// repetition takes 0.3–0.6 s on a 2-vCPU host and a run holds 20–35 of
/// them: fewer, and the ~6 % repetition-to-repetition noise shows in the
/// median; smaller n, and the rate starts to depend on the seed (a few long
/// enron records, one calibration sample). `aol-threads`' n also keeps its
/// pair count (~400k) away from a power of two, where one more doubling of
/// the result vector would make peak memory jump by seed.
pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: "tweet-threads",
        profile: DatasetProfile::tweet,
        n: 300_000,
        tau: 0.8,
        window: Window::Count(20_000),
        engine: Engine::Threads,
        checkpoint: false,
    },
    Workload {
        name: "tweet-tcp",
        profile: DatasetProfile::tweet,
        n: 25_000,
        tau: 0.8,
        window: Window::Count(20_000),
        engine: Engine::Tcp,
        checkpoint: false,
    },
    Workload {
        name: "enron-threads",
        profile: DatasetProfile::enron,
        n: 30_000,
        tau: 0.6,
        window: Window::Count(15_000),
        engine: Engine::Threads,
        checkpoint: false,
    },
    Workload {
        name: "enron-churn-threads",
        profile: DatasetProfile::enron,
        n: 60_000,
        tau: 0.6,
        window: Window::Count(2_000),
        engine: Engine::Threads,
        checkpoint: false,
    },
    Workload {
        name: "aol-threads",
        profile: DatasetProfile::aol,
        n: 75_000,
        tau: 0.8,
        window: Window::Unbounded,
        engine: Engine::Threads,
        checkpoint: false,
    },
    Workload {
        name: "tweet-ckpt-threads",
        profile: DatasetProfile::tweet,
        n: 300_000,
        tau: 0.8,
        window: Window::Count(20_000),
        engine: Engine::Threads,
        checkpoint: true,
    },
];

/// The workload called `name`.
pub fn by_name(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

impl Workload {
    /// The same workload over `n` records (tests run small copies).
    #[cfg(test)]
    pub fn with_n(mut self, n: usize) -> Self {
        self.n = n;
        self
    }

    /// Threshold and window.
    pub fn join(&self) -> JoinConfig {
        JoinConfig::jaccard(self.tau).with_window(self.window)
    }

    /// The workload's records for `seed`. The program only ever sees these.
    pub fn records(&self, seed: u64) -> Vec<Record> {
        StreamGenerator::new((self.profile)(), seed).take_records(self.n)
    }

    /// The `run_distributed` configuration (threads engine).
    pub fn threads_config(&self, store_dir: Option<&Path>, trace: bool) -> DistributedJoinConfig {
        let mut cfg = DistributedJoinConfig::recommended(K, self.join()).with_dispatch_batch(32);
        if let Some(dir) = store_dir {
            let store = FileStore::open(dir).expect("checkpoint directory is creatable");
            cfg = cfg.with_checkpointing(CheckpointConfig::new(CKPT_INTERVAL, Arc::new(store)));
        }
        if trace {
            cfg = cfg.with_trace(TraceConfig::default());
        }
        cfg
    }

    /// The `run_cluster` configuration for `backend`.
    pub fn cluster_config(&self, backend: ClusterBackend) -> ClusterConfig {
        ClusterConfig::recommended(K, self.join(), backend)
    }
}

/// Sorted `(earlier, later)` keys of a pair list.
pub fn sorted_keys(pairs: &[MatchPair]) -> Vec<(u64, u64)> {
    let mut keys: Vec<_> = pairs.iter().map(MatchPair::key).collect();
    keys.sort_unstable();
    keys
}

/// What set-up produced: the inputs and the answer.
#[derive(Debug)]
pub struct Prepared {
    pub records: Vec<Record>,
    /// Sorted pair keys from the single-threaded PPJoin reference.
    pub expected: Vec<(u64, u64)>,
    pub generate: Duration,
    pub reference: Duration,
    pub naive_check: Duration,
}

/// The expected pairs of `records`, from a different algorithm than the
/// one under test: single-threaded PPJoin (the workloads run the bundle
/// joiner).
pub fn reference_pairs(w: &Workload, records: &[Record]) -> Vec<MatchPair> {
    run_stream(&mut PpJoinJoiner::new(w.join()), records)
}

/// Cross-checks the reference itself: on the first [`NAIVE_PREFIX`]
/// records it must equal the verify-everything join.
pub fn naive_check(
    w: &Workload,
    records: &[Record],
    expected: &[(u64, u64)],
) -> Result<(), String> {
    let prefix = &records[..records.len().min(NAIVE_PREFIX)];
    let naive = sorted_keys(&run_stream(&mut NaiveJoiner::new(w.join()), prefix));
    let reference = expected_prefix(expected, prefix);
    if naive == reference {
        Ok(())
    } else {
        Err(format!(
            "{}: PPJoin reference disagrees with the naive join on the first {} records \
             ({} vs {} pairs)",
            w.name,
            prefix.len(),
            reference.len(),
            naive.len()
        ))
    }
}

/// The expected pairs of a prefix of the stream: a pair depends only on
/// records up to its later member, so the prefix's answer is the full
/// answer restricted to pairs that end inside it.
pub fn expected_prefix(expected: &[(u64, u64)], prefix: &[Record]) -> Vec<(u64, u64)> {
    let last = prefix.last().map_or(0, |r| r.id().0);
    expected
        .iter()
        .copied()
        .filter(|&(_, later)| later <= last)
        .collect()
}

/// Set-up as the untraced run does it: generate, reference join, naive
/// prefix check, each timed.
pub fn prepare(w: &Workload, seed: u64) -> Result<Prepared, String> {
    let t0 = Instant::now();
    let records = w.records(seed);
    let generate = t0.elapsed();

    let t0 = Instant::now();
    let expected = sorted_keys(&reference_pairs(w, &records));
    let reference = t0.elapsed();

    let t0 = Instant::now();
    naive_check(w, &records, &expected)?;
    let naive_check = t0.elapsed();
    Ok(Prepared {
        records,
        expected,
        generate,
        reference,
        naive_check,
    })
}

/// Where a repetition may put files and find the node binary.
#[derive(Debug, Clone)]
pub struct Env {
    /// The `ssj-node` binary the TCP engine spawns.
    pub node_bin: PathBuf,
    /// Scratch directory for checkpoint stores, inside the checkout.
    pub tmp: PathBuf,
}

impl Env {
    /// The TCP backend: `ssj-node` processes over localhost sockets.
    pub fn tcp(&self) -> ClusterBackend {
        ClusterBackend::Tcp {
            node_bin: self.node_bin.clone(),
        }
    }
}

/// One repetition: the benchmark's wall clock around the public call, and
/// the pairs the call returned.
#[derive(Debug)]
pub struct Repetition {
    pub wall: Duration,
    pub pairs: Vec<MatchPair>,
    /// `VmHWM` when the call returned, in MiB.
    pub peak_rss_mib: f64,
}

/// Runs `records` once through `run_distributed`. The clock covers the
/// whole public call — topology spawn, partition calibration, the stream,
/// the drain — and nothing else: a checkpointing workload's store
/// directory is made before it and removed after it.
pub fn run_threads(
    w: &Workload,
    records: &[Record],
    env: &Env,
    trace: bool,
) -> (Duration, DistributedJoinResult) {
    let dir = w.checkpoint.then(|| fresh_dir(&env.tmp));
    let cfg = w.threads_config(dir.as_deref(), trace);
    let t0 = Instant::now();
    let result = run_distributed(records, &cfg);
    let wall = t0.elapsed();
    drop(cfg);
    if let Some(dir) = dir {
        std::fs::remove_dir_all(&dir).expect("checkpoint directory is removable");
    }
    (wall, result)
}

/// Runs `records` once through `run_cluster` on `backend`; the clock
/// covers node spawn, handshake, the stream, the drain and teardown.
pub fn run_on_cluster(
    w: &Workload,
    records: &[Record],
    backend: ClusterBackend,
) -> (Duration, ClusterResult) {
    let cfg = w.cluster_config(backend);
    let t0 = Instant::now();
    let result = run_cluster(records, &cfg);
    (t0.elapsed(), result)
}

/// One untraced repetition on the workload's own engine.
pub fn run_once(w: &Workload, records: &[Record], env: &Env) -> Repetition {
    let (wall, pairs) = match w.engine {
        Engine::Threads => {
            let (wall, result) = run_threads(w, records, env, false);
            (wall, result.pairs)
        }
        Engine::Tcp => {
            let (wall, result) = run_on_cluster(w, records, env.tcp());
            (wall, result.pairs)
        }
    };
    Repetition {
        wall,
        pairs,
        peak_rss_mib: crate::host::peak_rss_mib().expect("/proc/self/status has VmHWM"),
    }
}

/// A new empty directory under `tmp`, unique within this process.
pub fn fresh_dir(tmp: &Path) -> PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = tmp.join(format!(
        "ckpt-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).expect("scratch directory is creatable");
    dir
}

/// Operations and failures of one repetition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Score {
    /// `|expected ∪ produced|`: every pair that should or did come out.
    pub attempted: u64,
    /// Missing + spurious + duplicate pairs.
    pub failed: u64,
}

impl Score {
    /// A repetition that produced nothing usable: every expected pair
    /// counts as attempted and failed.
    pub fn all_failed(expected: &[(u64, u64)]) -> Score {
        let ops = expected.len().max(1) as u64;
        Score {
            attempted: ops,
            failed: ops,
        }
    }

    pub fn add(&mut self, other: Score) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// Scores `produced` against the sorted, duplicate-free `expected`.
pub fn score(expected: &[(u64, u64)], produced: &[MatchPair]) -> Score {
    let mut distinct = sorted_keys(produced);
    let emitted = distinct.len();
    distinct.dedup();
    let duplicates = (emitted - distinct.len()) as u64;
    let (mut i, mut j, mut common) = (0, 0, 0u64);
    while i < expected.len() && j < distinct.len() {
        match expected[i].cmp(&distinct[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                common += 1;
                i += 1;
                j += 1;
            }
        }
    }
    let missing = expected.len() as u64 - common;
    let spurious = distinct.len() as u64 - common;
    Score {
        attempted: common + missing + spurious,
        failed: missing + spurious + duplicates,
    }
}

/// Runs one untraced repetition and scores it. A panic inside the program
/// (its run paths panic rather than return errors) or a repetition over
/// [`REP_TIMEOUT`] fails every expected pair, and no repetition is
/// returned.
pub fn run_scored(
    w: &Workload,
    records: &[Record],
    expected: &[(u64, u64)],
    env: &Env,
) -> (Option<Repetition>, Score) {
    let outcome =
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run_once(w, records, env)));
    match outcome {
        Ok(rep) if rep.wall <= REP_TIMEOUT => {
            let s = score(expected, &rep.pairs);
            (Some(rep), s)
        }
        _ => (None, Score::all_failed(expected)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssj_text::RecordId;

    fn pair(a: u64, b: u64) -> MatchPair {
        MatchPair {
            earlier: RecordId(a),
            later: RecordId(b),
            similarity: 0.9,
        }
    }

    #[test]
    fn score_counts_missing_spurious_and_duplicate_pairs() {
        let expected = [(0, 1), (0, 2), (1, 2), (3, 4)];
        let exact = [pair(3, 4), pair(0, 1), pair(1, 2), pair(0, 2)];
        assert_eq!(
            score(&expected, &exact),
            Score {
                attempted: 4,
                failed: 0
            }
        );
        // (0,2) missing, (7,8) spurious, (1,2) emitted twice.
        let doctored = [pair(0, 1), pair(1, 2), pair(1, 2), pair(3, 4), pair(7, 8)];
        assert_eq!(
            score(&expected, &doctored),
            Score {
                attempted: 5,
                failed: 3
            }
        );
        assert_eq!(
            Score::all_failed(&expected),
            Score {
                attempted: 4,
                failed: 4
            }
        );
        assert_eq!(Score::all_failed(&[]).attempted, 1);
    }

    #[test]
    fn every_workload_prepares_and_joins_exactly_at_small_scale() {
        let env = crate::test_env();
        for w in WORKLOADS {
            let w = w.with_n(2_000);
            let prepared = prepare(&w, 7).unwrap();
            assert_eq!(prepared.records.len(), 2_000);
            if w.engine == Engine::Tcp && !env.node_bin.exists() {
                eprintln!(
                    "skipping {}: no ssj-node at {}",
                    w.name,
                    env.node_bin.display()
                );
                continue;
            }
            let (rep, s) = run_scored(&w, &prepared.records, &prepared.expected, &env);
            assert!(rep.is_some(), "{} did not complete", w.name);
            assert_eq!(s.failed, 0, "{} produced a wrong pair set", w.name);
            assert_eq!(s.attempted, prepared.expected.len() as u64, "{}", w.name);
        }
    }
}
