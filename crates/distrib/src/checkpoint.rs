//! Epoch-based coordinated checkpointing: durable snapshots and bounded
//! replay.
//!
//! The dispatcher periodically injects a [`JoinMsg::Barrier`] control
//! tuple down every joiner wire (one barrier per *epoch*, every
//! [`CheckpointConfig::interval`] dispatched records). Barriers ride the
//! same FIFO channels as data, so when a joiner sees the epoch-`e` barrier
//! its local state reflects exactly the records dispatched before the
//! barrier — a Chandy–Lamport consistent cut, with no stop-the-world
//! pause. The joiner captures its
//! [`window_snapshot`](ssj_core::StreamJoiner::window_snapshot), publishes
//! it to the run's [`SnapshotStore`], and moves on.
//!
//! The [`CheckpointCoordinator`] tracks which of the `k` tasks have
//! published for each in-flight epoch. When the last one lands, the epoch
//! **commits**: the manifest (cut id, topology shape, routing partition)
//! is written atomically, and every task's replay buffer is truncated to
//! entries *after* the **previous** committed epoch's cut
//! ([`RecoveryState::commit_snapshot`]) — one epoch of grace retention,
//! so a restore that has to quarantine a corrupt newest snapshot can fall
//! back one epoch and still replay the gap exactly. Post-crash replay
//! stays O(epoch interval) even under
//! [`Window::Unbounded`](ssj_core::Window).
//!
//! Two stores are provided: [`MemStore`] (tests, simulation) and
//! [`FileStore`] (epoch-stamped snapshot files encoded with the `ssj-text`
//! record codec via [`ssj_core::snapshot`]). A whole-process restart
//! rebuilds a topology from the latest complete checkpoint through
//! [`load_latest_verified`] and the driver's `restore_from` path.
//!
//! # Integrity
//!
//! Every `.snap` part and `MANIFEST` payload is wrapped in an 8-byte
//! envelope — [`STORE_MAGIC`] plus a CRC32C of the payload (see
//! [`seal_payload`] / [`open_payload`]) — written at the *coordinator*
//! layer so any [`SnapshotStore`], including fault-injecting test
//! wrappers, exercises verification on read-back. A payload without the
//! envelope, or one that fails its check, is never trusted:
//! [`load_latest_verified`] quarantines the epoch and falls back to the
//! newest fully-verified earlier one, the in-run restore path
//! ([`CheckpointCoordinator::restore_and_replay_for`]) does the same
//! across the retained epochs, and [`scrub`] audits a whole store
//! offline. See `DESIGN.md` §13 for the threat model.
//!
//! [`JoinMsg::Barrier`]: crate::msg::JoinMsg::Barrier
//! [`RecoveryState::commit_snapshot`]: crate::recovery::RecoveryState::commit_snapshot

use crate::recovery::RecoveryState;
use parking_lot::Mutex;
use ssj_core::snapshot::{decode_window_slice, encode_window_vec, SnapshotEntry};
use ssj_partition::LengthPartition;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::fs;
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use stormlite::Timestamp;

/// Durable storage for checkpoint snapshots, pluggable per run.
///
/// `part` names one task's slice of an epoch (`"joiner-3"`). An epoch is
/// *complete* only once [`commit`](Self::commit) has recorded its
/// manifest; readers must ignore parts of uncommitted epochs (a crash may
/// leave them behind).
pub trait SnapshotStore: fmt::Debug + Send + Sync {
    /// Persists one part of an epoch's checkpoint, overwriting any
    /// previous attempt.
    fn put(&self, epoch: u64, part: &str, bytes: &[u8]) -> io::Result<()>;

    /// Reads one part of an epoch's checkpoint.
    fn get(&self, epoch: u64, part: &str) -> io::Result<Option<Vec<u8>>>;

    /// Atomically marks `epoch` complete by recording its manifest. After
    /// this returns, a crashed process may restore from `epoch`.
    fn commit(&self, epoch: u64, manifest: &[u8]) -> io::Result<()>;

    /// The manifest of a committed epoch.
    fn manifest(&self, epoch: u64) -> io::Result<Option<Vec<u8>>>;

    /// Every epoch with a committed manifest, in ascending order. The
    /// verified-restore walk and [`scrub`] iterate this newest-first.
    fn epochs(&self) -> io::Result<Vec<u64>>;

    /// The newest epoch with a committed manifest, if any.
    fn latest_complete(&self) -> io::Result<Option<u64>> {
        Ok(self.epochs()?.last().copied())
    }
}

/// In-memory [`SnapshotStore`] for tests and simulation. Shareable across
/// a "crashed" and a "restored" run via [`Arc`] to model a durable medium.
#[derive(Debug, Default)]
pub struct MemStore {
    parts: Mutex<BTreeMap<(u64, String), Vec<u8>>>,
    manifests: Mutex<BTreeMap<u64, Vec<u8>>>,
}

impl MemStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }
}

impl SnapshotStore for MemStore {
    fn put(&self, epoch: u64, part: &str, bytes: &[u8]) -> io::Result<()> {
        self.parts
            .lock()
            .insert((epoch, part.to_owned()), bytes.to_vec());
        Ok(())
    }

    fn get(&self, epoch: u64, part: &str) -> io::Result<Option<Vec<u8>>> {
        Ok(self.parts.lock().get(&(epoch, part.to_owned())).cloned())
    }

    fn commit(&self, epoch: u64, manifest: &[u8]) -> io::Result<()> {
        self.manifests.lock().insert(epoch, manifest.to_vec());
        Ok(())
    }

    fn manifest(&self, epoch: u64) -> io::Result<Option<Vec<u8>>> {
        Ok(self.manifests.lock().get(&epoch).cloned())
    }

    fn epochs(&self) -> io::Result<Vec<u64>> {
        Ok(self.manifests.lock().keys().copied().collect())
    }
}

/// File-backed [`SnapshotStore`]: one `epoch-<e>` directory per epoch,
/// one `<part>.snap` file per task, and a `MANIFEST` file whose
/// write-then-rename creation is the atomic commit point.
#[derive(Debug)]
pub struct FileStore {
    dir: PathBuf,
}

impl FileStore {
    /// Opens (creating if needed) a snapshot directory.
    ///
    /// # Errors
    /// Fails if the directory cannot be created.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<Self> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(Self { dir })
    }

    /// The directory this store persists into.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn epoch_dir(&self, epoch: u64) -> PathBuf {
        self.dir.join(format!("epoch-{epoch}"))
    }
}

impl SnapshotStore for FileStore {
    fn put(&self, epoch: u64, part: &str, bytes: &[u8]) -> io::Result<()> {
        let dir = self.epoch_dir(epoch);
        fs::create_dir_all(&dir)?;
        let mut f = fs::File::create(dir.join(format!("{part}.snap")))?;
        f.write_all(bytes)?;
        f.sync_all()
    }

    fn get(&self, epoch: u64, part: &str) -> io::Result<Option<Vec<u8>>> {
        let path = self.epoch_dir(epoch).join(format!("{part}.snap"));
        match fs::File::open(&path) {
            Ok(mut f) => {
                let mut buf = Vec::new();
                f.read_to_end(&mut buf)?;
                Ok(Some(buf))
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e),
        }
    }

    fn commit(&self, epoch: u64, manifest: &[u8]) -> io::Result<()> {
        let dir = self.epoch_dir(epoch);
        fs::create_dir_all(&dir)?;
        let tmp = dir.join("MANIFEST.tmp");
        {
            let mut f = fs::File::create(&tmp)?;
            f.write_all(manifest)?;
            f.sync_all()?;
        }
        // The rename is the commit point: MANIFEST either exists complete
        // or not at all, so a crash mid-checkpoint is indistinguishable
        // from never having started the epoch.
        fs::rename(&tmp, dir.join("MANIFEST"))
    }

    fn manifest(&self, epoch: u64) -> io::Result<Option<Vec<u8>>> {
        let path = self.epoch_dir(epoch).join("MANIFEST");
        match fs::read(&path) {
            Ok(bytes) => Ok(Some(bytes)),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e),
        }
    }

    fn epochs(&self) -> io::Result<Vec<u64>> {
        let mut epochs = Vec::new();
        for entry in fs::read_dir(&self.dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let Some(epoch) = name
                .to_str()
                .and_then(|n| n.strip_prefix("epoch-"))
                .and_then(|e| e.parse::<u64>().ok())
            else {
                continue;
            };
            // A directory without a MANIFEST is an uncommitted (possibly
            // torn) attempt — invisible to restore.
            if entry.path().join("MANIFEST").is_file() {
                epochs.push(epoch);
            }
        }
        epochs.sort_unstable();
        Ok(epochs)
    }
}

/// Magic prefixing every stored payload (`"CRC2"` on disk).
pub const STORE_MAGIC: u32 = 0x3243_5243;

/// Wraps a store payload in the integrity envelope:
/// `[STORE_MAGIC u32 le][crc32c(payload) u32 le][payload]`.
pub fn seal_payload(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + 8);
    out.extend_from_slice(&STORE_MAGIC.to_le_bytes());
    out.extend_from_slice(&stormlite::crc32c(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Unwraps a store payload read back from a [`SnapshotStore`]: the
/// envelope is verified and stripped.
///
/// # Errors
/// Fails with [`io::ErrorKind::InvalidData`] when the envelope is missing
/// (too short, or a damaged magic) or the checksum does not match the
/// payload — either way the bytes are rot, and the caller quarantines
/// them.
pub fn open_payload(bytes: &[u8]) -> io::Result<&[u8]> {
    let bad = |what| io::Error::new(io::ErrorKind::InvalidData, what);
    if bytes.len() < 8 || bytes[..4] != STORE_MAGIC.to_le_bytes() {
        return Err(bad("store payload has no integrity envelope"));
    }
    let want = u32::from_le_bytes(bytes[4..8].try_into().expect("4-byte slice"));
    let payload = &bytes[8..];
    if stormlite::crc32c(payload) != want {
        return Err(bad("store payload checksum mismatch"));
    }
    Ok(payload)
}

/// What a committed epoch's manifest records: enough to validate and
/// rebuild a topology from the snapshot alone.
///
/// Binary layout (all little-endian):
///
/// ```text
/// magic u32 = 0x4d57_4e53 ("SNWM")  version u32 = 1
/// epoch u64   cut_id u64   k u64   bistream u8   has_partition u8
/// [count u32, count × upper u64]       (iff has_partition = 1)
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Manifest {
    /// The epoch this manifest commits.
    pub epoch: u64,
    /// Id of the last record dispatched before the barrier: the snapshot
    /// is exactly the in-window state of the id-prefix `..= cut_id`.
    pub cut_id: u64,
    /// Joiner parallelism of the checkpointed topology.
    pub k: usize,
    /// Whether the run was a bi-stream (R–S) join.
    pub bistream: bool,
    /// The length partition routing was using at the cut, for strategies
    /// that have one — a restored run resumes with it rather than
    /// recalibrating on post-cut records.
    pub partition: Option<LengthPartition>,
}

const MANIFEST_MAGIC: u32 = 0x4d57_4e53;
const MANIFEST_VERSION: u32 = 1;

impl Manifest {
    /// Serializes the manifest.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(34);
        out.extend_from_slice(&MANIFEST_MAGIC.to_le_bytes());
        out.extend_from_slice(&MANIFEST_VERSION.to_le_bytes());
        out.extend_from_slice(&self.epoch.to_le_bytes());
        out.extend_from_slice(&self.cut_id.to_le_bytes());
        out.extend_from_slice(&(self.k as u64).to_le_bytes());
        out.push(u8::from(self.bistream));
        out.push(u8::from(self.partition.is_some()));
        if let Some(p) = &self.partition {
            let uppers = p.uppers();
            out.extend_from_slice(&(uppers.len() as u32).to_le_bytes());
            for &u in uppers {
                out.extend_from_slice(&(u as u64).to_le_bytes());
            }
        }
        out
    }

    /// Deserializes a manifest, validating magic and version.
    ///
    /// # Errors
    /// Fails on truncation, a bad magic, or an unknown version.
    pub fn decode(bytes: &[u8]) -> io::Result<Self> {
        fn bad(msg: &str) -> io::Error {
            io::Error::new(io::ErrorKind::InvalidData, format!("manifest: {msg}"))
        }
        let take = |range: std::ops::Range<usize>| -> io::Result<&[u8]> {
            bytes.get(range).ok_or_else(|| bad("truncated"))
        };
        let u32_at = |at: usize| -> io::Result<u32> {
            Ok(u32::from_le_bytes(take(at..at + 4)?.try_into().unwrap()))
        };
        let u64_at = |at: usize| -> io::Result<u64> {
            Ok(u64::from_le_bytes(take(at..at + 8)?.try_into().unwrap()))
        };
        if u32_at(0)? != MANIFEST_MAGIC {
            return Err(bad("bad magic"));
        }
        if u32_at(4)? != MANIFEST_VERSION {
            return Err(bad("unknown version"));
        }
        let epoch = u64_at(8)?;
        let cut_id = u64_at(16)?;
        let k = u64_at(24)? as usize;
        let bistream = match take(32..33)?[0] {
            0 => false,
            1 => true,
            _ => return Err(bad("bad bistream flag")),
        };
        let partition = match take(33..34)?[0] {
            0 => None,
            1 => {
                // Every declared bound must be present before anything is
                // allocated for them.
                let count = u32_at(34)? as usize;
                let uppers = take(38..38usize.saturating_add(count.saturating_mul(8)))?
                    .chunks_exact(8)
                    .map(|b| u64::from_le_bytes(b.try_into().unwrap()) as usize)
                    .collect();
                Some(LengthPartition::from_uppers(uppers))
            }
            _ => return Err(bad("bad partition flag")),
        };
        Ok(Self {
            epoch,
            cut_id,
            k,
            bistream,
            partition,
        })
    }
}

/// Configuration of checkpointing for one run.
#[derive(Clone)]
pub struct CheckpointConfig {
    /// Dispatch a barrier every this many routed records. The replay
    /// buffer, the replay volume after a crash, and the data at risk in a
    /// whole-process failure are all bounded by roughly this many records.
    pub interval: u64,
    /// Where snapshots and manifests are persisted.
    pub store: Arc<dyn SnapshotStore>,
}

impl CheckpointConfig {
    /// Checkpoints every `interval` records into a fresh [`MemStore`].
    ///
    /// # Panics
    /// Panics if `interval` is zero.
    pub fn in_memory(interval: u64) -> Self {
        Self::new(interval, Arc::new(MemStore::new()))
    }

    /// Checkpoints every `interval` records into `store`.
    ///
    /// # Panics
    /// Panics if `interval` is zero.
    pub fn new(interval: u64, store: Arc<dyn SnapshotStore>) -> Self {
        assert!(interval >= 1, "a zero checkpoint interval never settles");
        Self { interval, store }
    }

    /// Checkpoints every `interval` records into a [`FileStore`] at `dir`.
    ///
    /// # Errors
    /// Fails if the directory cannot be created.
    ///
    /// # Panics
    /// Panics if `interval` is zero.
    pub fn in_dir(interval: u64, dir: impl Into<PathBuf>) -> io::Result<Self> {
        Ok(Self::new(interval, Arc::new(FileStore::open(dir)?)))
    }
}

impl fmt::Debug for CheckpointConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CheckpointConfig")
            .field("interval", &self.interval)
            .field("store", &self.store)
            .finish()
    }
}

/// What publishing one snapshot part did.
#[derive(Debug, Clone, Copy)]
pub struct PublishOutcome {
    /// Serialized size of the published snapshot.
    pub bytes: u64,
    /// `true` iff this publication completed (committed) the epoch.
    pub completed: bool,
    /// When the epoch's barrier was injected (for latency accounting).
    pub injected_at: Timestamp,
}

/// One in-flight epoch awaiting snapshots.
#[derive(Debug)]
struct Inflight {
    manifest: Manifest,
    /// Per task: id of the last index-target record routed there before
    /// the barrier (`None` = task held nothing of this prefix).
    cuts: Vec<Option<u64>>,
    injected_at: Timestamp,
    /// Tasks yet to publish.
    pending: usize,
}

#[derive(Debug)]
struct CoordInner {
    next_epoch: u64,
    inflight: BTreeMap<u64, Inflight>,
    latest_complete: Option<u64>,
    epochs_committed: u64,
    /// The last (up to) two committed epochs with their per-task cuts,
    /// oldest first. Replay-buffer truncation lags one epoch behind the
    /// commit (grace retention), so an in-run restore that quarantines the
    /// newest epoch can fall back to the previous one and still find every
    /// record past *its* cut in the buffer.
    retained: Vec<(u64, Vec<Option<u64>>)>,
    /// Epochs whose snapshot failed verification during an in-run restore;
    /// never offered again.
    quarantined: BTreeSet<u64>,
    corrupt_parts: u64,
    max_fallback_depth: u64,
}

/// Shared epoch bookkeeping between the dispatcher (which opens epochs)
/// and the joiners (which publish snapshots into them).
#[derive(Debug)]
pub struct CheckpointCoordinator {
    k: usize,
    interval: u64,
    store: Arc<dyn SnapshotStore>,
    recovery: Arc<RecoveryState>,
    inner: Mutex<CoordInner>,
}

impl CheckpointCoordinator {
    /// A coordinator for `k` joiner tasks, committing into `cfg.store`
    /// and truncating `recovery`'s replay buffers on every commit. Epoch
    /// numbering continues after whatever the store already holds, so
    /// restarting into a used [`FileStore`] directory never collides with
    /// prior checkpoints.
    ///
    /// # Errors
    /// Fails if the store cannot report its latest complete epoch.
    pub fn new(k: usize, cfg: &CheckpointConfig, recovery: Arc<RecoveryState>) -> io::Result<Self> {
        assert_eq!(recovery.k(), k, "recovery state and topology disagree on k");
        let next_epoch = cfg.store.latest_complete()?.map_or(1, |e| e + 1);
        Ok(Self {
            k,
            interval: cfg.interval,
            store: Arc::clone(&cfg.store),
            recovery,
            inner: Mutex::new(CoordInner {
                next_epoch,
                inflight: BTreeMap::new(),
                latest_complete: None,
                epochs_committed: 0,
                retained: Vec::new(),
                quarantined: BTreeSet::new(),
                corrupt_parts: 0,
                max_fallback_depth: 0,
            }),
        })
    }

    /// Records between barriers.
    pub fn interval(&self) -> u64 {
        self.interval
    }

    /// Joiner tasks per epoch.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Dispatcher side: opens a new epoch at a consistent cut. `cut_id` is
    /// the id of the last record dispatched before the barrier; `cuts[t]`
    /// the last *index-target* id routed to task `t` (what its snapshot
    /// will cover). Returns the epoch number to stamp on the barrier.
    pub fn begin_epoch(
        &self,
        injected_at: Timestamp,
        cut_id: u64,
        cuts: Vec<Option<u64>>,
        bistream: bool,
        partition: Option<LengthPartition>,
    ) -> u64 {
        assert_eq!(cuts.len(), self.k, "one cut per joiner task");
        let mut inner = self.inner.lock();
        let epoch = inner.next_epoch;
        inner.next_epoch += 1;
        let manifest = Manifest {
            epoch,
            cut_id,
            k: self.k,
            bistream,
            partition,
        };
        inner.inflight.insert(
            epoch,
            Inflight {
                manifest,
                cuts,
                injected_at,
                pending: self.k,
            },
        );
        epoch
    }

    /// Joiner side: publishes `task`'s window snapshot for `epoch`. When
    /// the last task publishes, the epoch commits: the manifest is written
    /// atomically and every task's replay buffer is truncated to entries
    /// after its cut.
    ///
    /// # Panics
    /// Panics on an unknown epoch (a barrier the dispatcher never
    /// opened — FIFO wires make that a protocol violation, not an
    /// environmental failure) or if the store fails (checkpointing to a
    /// broken store must be loud, never silently skipped).
    pub fn publish(&self, epoch: u64, task: usize, entries: &[SnapshotEntry]) -> PublishOutcome {
        let bytes = encode_window_vec(entries).expect("window snapshots are always encodable");
        // Sealed at this layer so every store — including fault-injecting
        // wrappers — holds checksummed payloads. `bytes` stays the logical
        // (unsealed) snapshot size: the metric and trace operand it feeds
        // describe the snapshot, not the envelope.
        self.store
            .put(epoch, &part_name(task), &seal_payload(&bytes))
            .expect("snapshot store write failed");
        let mut inner = self.inner.lock();
        let inflight = inner
            .inflight
            .get_mut(&epoch)
            .expect("barrier for an unopened epoch");
        assert!(inflight.pending > 0, "epoch over-published");
        inflight.pending -= 1;
        let injected_at = inflight.injected_at;
        if inflight.pending > 0 {
            return PublishOutcome {
                bytes: bytes.len() as u64,
                completed: false,
                injected_at,
            };
        }
        let done = inner.inflight.remove(&epoch).expect("present above");
        self.store
            .commit(epoch, &seal_payload(&done.manifest.encode()))
            .expect("snapshot store commit failed");
        inner.latest_complete = Some(epoch);
        inner.epochs_committed += 1;
        inner.retained.push((epoch, done.cuts));
        if inner.retained.len() > 2 {
            inner.retained.remove(0);
        }
        // Grace retention: truncate each replay buffer only to the
        // *previous* committed epoch's cut, so a restore that has to
        // quarantine this epoch can fall back one epoch and still replay
        // everything past the older cut. Truncation MUST happen while
        // `inner` is still held: [`Self::restore_and_replay_for`] reads
        // (retained epochs, replay buffer) under the same lock, and a
        // commit slipping between a restarting joiner's two reads would
        // truncate records the restored (older) snapshot does not cover —
        // losing them.
        if inner.retained.len() == 2 {
            let prev_cuts = inner.retained[0].1.clone();
            for (t, cut) in prev_cuts.iter().enumerate() {
                self.recovery.commit_snapshot(t, *cut);
            }
        }
        drop(inner);
        PublishOutcome {
            bytes: bytes.len() as u64,
            completed: true,
            injected_at,
        }
    }

    /// Joiner side, on restart: atomically pairs the newest *verified*
    /// committed snapshot with the replay-buffer suffix past its cut. The
    /// two are read under the coordinator lock so no epoch can commit —
    /// and truncate the buffer past the snapshot being restored — between
    /// the reads; with the lock released in between, records landing in
    /// the gap between two cuts would be lost.
    ///
    /// A snapshot that fails its checksum or decode is quarantined (never
    /// offered again, counted in [`Self::integrity`]) and the walk falls
    /// back to the previous retained epoch; grace retention guarantees the
    /// replay buffer still reaches back to that older cut, so the fallback
    /// restore is exact. The returned replay entries are filtered to ids
    /// past the restored epoch's cut — with the buffer retaining one extra
    /// epoch, the raw buffer may overlap the snapshot.
    pub fn restore_and_replay_for(
        &self,
        task: usize,
    ) -> (
        Option<(u64, Vec<SnapshotEntry>)>,
        Vec<crate::recovery::ReplayEntry>,
    ) {
        let mut inner = self.inner.lock();
        let (snapshot, cut) = self.verified_restore_locked(&mut inner, task);
        let replay = self.recovery.replay_for(task);
        drop(inner);
        let replay = match (&snapshot, cut) {
            (Some(_), Some(cut)) => replay
                .into_iter()
                .filter(|e| e.record.id().0 > cut)
                .collect(),
            // Restored epoch routed nothing to this task, or no snapshot
            // at all: every buffered entry is uncovered.
            _ => replay,
        };
        (snapshot, replay)
    }

    /// Walks the retained committed epochs newest-first under `inner`,
    /// returning the first part that verifies plus the restored epoch's
    /// cut for `task`. Unverifiable epochs are quarantined and counted.
    fn verified_restore_locked(
        &self,
        inner: &mut CoordInner,
        task: usize,
    ) -> (Option<(u64, Vec<SnapshotEntry>)>, Option<u64>) {
        let candidates: Vec<(u64, Option<u64>)> = inner
            .retained
            .iter()
            .rev()
            .map(|(e, cuts)| (*e, cuts[task]))
            .collect();
        let mut depth = 0u64;
        for (epoch, cut) in candidates {
            if inner.quarantined.contains(&epoch) {
                depth += 1;
                continue;
            }
            match self.try_fetch(epoch, task) {
                Ok(entries) => {
                    inner.max_fallback_depth = inner.max_fallback_depth.max(depth);
                    return (Some((epoch, entries)), cut);
                }
                Err(_) => {
                    inner.corrupt_parts += 1;
                    inner.quarantined.insert(epoch);
                    depth += 1;
                }
            }
        }
        inner.max_fallback_depth = inner.max_fallback_depth.max(depth);
        (None, None)
    }

    /// Reads and verifies one task's part of a committed epoch.
    fn try_fetch(&self, epoch: u64, task: usize) -> io::Result<Vec<SnapshotEntry>> {
        let sealed = self.store.get(epoch, &part_name(task))?.ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("committed epoch {epoch} lost part {}", part_name(task)),
            )
        })?;
        decode_window_slice(open_payload(&sealed)?)
    }

    /// Corruption observed by this coordinator's in-run restores. Only the
    /// storage-side counters are populated; transport-frame corruption is
    /// counted by the layer that owns the wire.
    pub fn integrity(&self) -> stormlite::IntegrityReport {
        let inner = self.inner.lock();
        stormlite::IntegrityReport {
            corrupt_snapshot_parts: inner.corrupt_parts,
            quarantined_epochs: inner.quarantined.len() as u64,
            restore_fallback_depth: inner.max_fallback_depth,
            ..Default::default()
        }
    }

    /// Epochs committed by this coordinator (not counting pre-existing
    /// checkpoints in the store).
    pub fn epochs_committed(&self) -> u64 {
        self.inner.lock().epochs_committed
    }

    /// The newest epoch committed by this coordinator.
    pub fn latest_complete(&self) -> Option<u64> {
        self.inner.lock().latest_complete
    }
}

fn part_name(task: usize) -> String {
    format!("joiner-{task}")
}

/// A fully-loaded complete checkpoint: the manifest plus the union of all
/// task snapshots, deduplicated by record id and sorted into global
/// arrival order — the whole topology's live window at the cut.
#[derive(Debug, Clone)]
pub struct CheckpointImage {
    /// The committed epoch this image was loaded from.
    pub epoch: u64,
    /// Records with id ≤ `cut_id` are covered by the image; a restored
    /// run feeds only ids beyond it.
    pub cut_id: u64,
    /// Joiner parallelism at checkpoint time.
    pub k: usize,
    /// Whether the checkpointed run was a bi-stream join.
    pub bistream: bool,
    /// The routing partition at the cut, if the strategy had one.
    pub partition: Option<LengthPartition>,
    /// The global in-window record set at the cut, in ascending id order.
    pub window: Vec<SnapshotEntry>,
}

/// Why one epoch failed verification: its manifest or one of its parts.
#[derive(Debug)]
enum EpochFault {
    Manifest(io::Error),
    Part(io::Error),
}

impl EpochFault {
    fn into_error(self) -> io::Error {
        match self {
            EpochFault::Manifest(e) | EpochFault::Part(e) => e,
        }
    }
}

/// Loads and fully verifies one committed epoch: manifest envelope +
/// decode, then every part's envelope + decode, classifying the first
/// failure. I/O errors count against whichever payload was being read —
/// the caller cannot trust an unreadable epoch any more than a corrupt
/// one.
fn load_epoch(store: &dyn SnapshotStore, epoch: u64) -> Result<CheckpointImage, EpochFault> {
    let manifest_bytes = store
        .manifest(epoch)
        .and_then(|m| {
            m.ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("epoch {epoch} reported complete but has no manifest"),
                )
            })
        })
        .map_err(EpochFault::Manifest)?;
    let manifest = Manifest::decode(open_payload(&manifest_bytes).map_err(EpochFault::Manifest)?)
        .map_err(EpochFault::Manifest)?;
    let mut window: BTreeMap<u64, SnapshotEntry> = BTreeMap::new();
    for task in 0..manifest.k {
        let bytes = store
            .get(epoch, &part_name(task))
            .and_then(|b| {
                b.ok_or_else(|| {
                    io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("complete epoch {epoch} is missing part {}", part_name(task)),
                    )
                })
            })
            .map_err(EpochFault::Part)?;
        let entries = decode_window_slice(open_payload(&bytes).map_err(EpochFault::Part)?)
            .map_err(EpochFault::Part)?;
        for (side, record) in entries {
            window.insert(record.id().0, (side, record));
        }
    }
    Ok(CheckpointImage {
        epoch: manifest.epoch,
        cut_id: manifest.cut_id,
        k: manifest.k,
        bistream: manifest.bistream,
        partition: manifest.partition,
        window: window.into_values().collect(),
    })
}

/// Outcome of a verified restore scan over a whole store: the newest
/// fully-verified checkpoint (if any) plus the audit trail of every newer
/// epoch that had to be quarantined to reach it.
#[derive(Debug, Default)]
pub struct RestoreScan {
    /// The newest committed epoch whose manifest and every part verified,
    /// or `None` when the store is empty or nothing verified — the caller
    /// then recomputes from the full stream rather than trusting rot.
    pub image: Option<CheckpointImage>,
    /// Committed epochs that failed verification and were skipped, newest
    /// first. Non-empty with `image: Some(..)` means a fallback restore.
    pub quarantined: Vec<u64>,
    /// Quarantined epochs whose *manifest* failed its check.
    pub corrupt_manifests: u64,
    /// Quarantined epochs where a snapshot part failed its check.
    pub corrupt_snapshot_parts: u64,
}

impl RestoreScan {
    /// How many epochs the scan stepped back past (0 = newest was clean).
    pub fn fallback_depth(&self) -> u64 {
        self.quarantined.len() as u64
    }

    /// The scan's counters as a mergeable [`stormlite::IntegrityReport`].
    pub fn integrity(&self) -> stormlite::IntegrityReport {
        stormlite::IntegrityReport {
            corrupt_snapshot_parts: self.corrupt_snapshot_parts,
            corrupt_manifests: self.corrupt_manifests,
            quarantined_epochs: self.quarantined.len() as u64,
            restore_fallback_depth: self.fallback_depth(),
            ..Default::default()
        }
    }
}

/// Walks every committed epoch in `store` newest-first and returns the
/// first one that fully verifies, quarantining (skipping and counting)
/// each corrupt epoch on the way. Replicating strategies store one record
/// at several joiners; the image's window is their union, deduplicated by
/// id (windows are judged per record, so every copy is identical) and in
/// arrival order, ready to re-dispatch through a fresh router. A store
/// with no committed epoch, or whose every epoch is corrupt,
/// yields `image: None` with the full quarantine list: the caller decides
/// whether to recompute from scratch or abort, but is never handed
/// unverified state and never panics.
///
/// # Errors
/// Fails only when the store cannot enumerate its epochs at all.
pub fn load_latest_verified(store: &dyn SnapshotStore) -> io::Result<RestoreScan> {
    let mut epochs = store.epochs()?;
    epochs.sort_unstable();
    let mut scan = RestoreScan::default();
    for &epoch in epochs.iter().rev() {
        match load_epoch(store, epoch) {
            Ok(image) => {
                scan.image = Some(image);
                return Ok(scan);
            }
            Err(EpochFault::Manifest(_)) => {
                scan.corrupt_manifests += 1;
                scan.quarantined.push(epoch);
            }
            Err(EpochFault::Part(_)) => {
                scan.corrupt_snapshot_parts += 1;
                scan.quarantined.push(epoch);
            }
        }
    }
    Ok(scan)
}

/// One epoch's outcome in a [`scrub`] audit.
#[derive(Debug)]
pub struct EpochScrub {
    /// The committed epoch audited.
    pub epoch: u64,
    /// Whether the manifest and every part verified.
    pub ok: bool,
    /// Snapshot parts the epoch was expected to hold (its manifest's `k`),
    /// when the manifest itself verified.
    pub parts: Option<usize>,
    /// The first verification failure, for operator display.
    pub error: Option<String>,
}

/// The outcome of an offline [`scrub`] over a whole snapshot store.
#[derive(Debug, Default)]
pub struct ScrubReport {
    /// Per-epoch outcomes, ascending by epoch.
    pub epochs: Vec<EpochScrub>,
}

impl ScrubReport {
    /// Epochs whose manifest and every part verified.
    pub fn verified(&self) -> usize {
        self.epochs.iter().filter(|e| e.ok).count()
    }

    /// Epochs with at least one verification failure.
    pub fn corrupt(&self) -> usize {
        self.epochs.len() - self.verified()
    }

    /// Whether every committed epoch verified end to end.
    pub fn is_clean(&self) -> bool {
        self.corrupt() == 0
    }
}

impl fmt::Display for ScrubReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{:<10} {:>6} {:<8} error", "epoch", "parts", "status")?;
        for e in &self.epochs {
            writeln!(
                f,
                "{:<10} {:>6} {:<8} {}",
                e.epoch,
                e.parts.map_or_else(|| "?".to_owned(), |p| p.to_string()),
                if e.ok { "ok" } else { "CORRUPT" },
                e.error.as_deref().unwrap_or("-"),
            )?;
        }
        write!(
            f,
            "{} epoch(s): {} verified, {} corrupt",
            self.epochs.len(),
            self.verified(),
            self.corrupt()
        )
    }
}

/// Offline integrity audit: verifies the manifest and every snapshot part
/// of every committed epoch in `store`, without restoring anything. This
/// is what `dssj scrub <dir>` runs against a [`FileStore`].
///
/// # Errors
/// Fails only when the store cannot enumerate its epochs; per-epoch
/// failures are findings in the report, not errors.
pub fn scrub(store: &dyn SnapshotStore) -> io::Result<ScrubReport> {
    let mut epochs = store.epochs()?;
    epochs.sort_unstable();
    let mut report = ScrubReport::default();
    for epoch in epochs {
        let entry = match load_epoch(store, epoch) {
            Ok(image) => EpochScrub {
                epoch,
                ok: true,
                parts: Some(image.k),
                error: None,
            },
            Err(fault) => {
                let parts = match &fault {
                    EpochFault::Manifest(_) => None,
                    EpochFault::Part(_) => store
                        .manifest(epoch)
                        .ok()
                        .flatten()
                        .and_then(|m| open_payload(&m).ok().map(<[u8]>::to_vec))
                        .and_then(|m| Manifest::decode(&m).ok())
                        .map(|m| m.k),
                };
                EpochScrub {
                    epoch,
                    ok: false,
                    parts,
                    error: Some(fault.into_error().to_string()),
                }
            }
        };
        report.epochs.push(entry);
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssj_core::join::bistream::Side;
    use ssj_core::Window;
    use ssj_text::{Record, RecordId, TokenId};

    fn rec(id: u64) -> Record {
        Record::from_sorted(RecordId(id), id, vec![TokenId(id as u32 + 1)])
    }

    fn entries(ids: &[u64]) -> Vec<SnapshotEntry> {
        ids.iter().map(|&id| (None, rec(id))).collect()
    }

    fn roundtrip_store(store: &dyn SnapshotStore) {
        assert_eq!(store.latest_complete().unwrap(), None);
        store.put(1, "joiner-0", b"zero").unwrap();
        store.put(1, "joiner-1", b"one").unwrap();
        // Uncommitted epochs are invisible to completeness queries.
        assert_eq!(store.latest_complete().unwrap(), None);
        assert_eq!(store.manifest(1).unwrap(), None);
        assert_eq!(store.epochs().unwrap(), Vec::<u64>::new());
        store.commit(1, b"manifest-1").unwrap();
        assert_eq!(store.latest_complete().unwrap(), Some(1));
        assert_eq!(store.get(1, "joiner-0").unwrap().unwrap(), b"zero");
        assert_eq!(store.get(1, "joiner-2").unwrap(), None);
        assert_eq!(store.manifest(1).unwrap().unwrap(), b"manifest-1");
        // A later epoch supersedes.
        store.put(3, "joiner-0", b"three").unwrap();
        store.commit(3, b"manifest-3").unwrap();
        assert_eq!(store.latest_complete().unwrap(), Some(3));
        assert_eq!(store.epochs().unwrap(), vec![1, 3]);
        // Overwriting a part is allowed (retried checkpoint attempt).
        store.put(3, "joiner-0", b"three-again").unwrap();
        assert_eq!(store.get(3, "joiner-0").unwrap().unwrap(), b"three-again");
    }

    #[test]
    fn mem_store_roundtrips() {
        roundtrip_store(&MemStore::new());
    }

    #[test]
    fn file_store_roundtrips() {
        let dir = std::env::temp_dir().join(format!("ssj-ckpt-rt-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        roundtrip_store(&FileStore::open(&dir).unwrap());
        // Reopening sees the committed state (durability).
        let reopened = FileStore::open(&dir).unwrap();
        assert_eq!(reopened.latest_complete().unwrap(), Some(3));
        assert_eq!(reopened.manifest(3).unwrap().unwrap(), b"manifest-3");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn file_store_crash_mid_commit_never_exposes_a_partial_epoch() {
        let dir = std::env::temp_dir().join(format!("ssj-ckpt-crash-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let store = FileStore::open(&dir).unwrap();
        let part = |ids: &[u64]| seal_payload(&encode_window_vec(&entries(ids)).unwrap());
        let manifest = |epoch: u64, cut_id: u64| {
            seal_payload(
                &Manifest {
                    epoch,
                    cut_id,
                    k: 2,
                    bistream: false,
                    partition: None,
                }
                .encode(),
            )
        };
        // Epoch 1 commits cleanly; every later kill point must fall back
        // to it.
        store.put(1, "joiner-0", &part(&[1])).unwrap();
        store.put(1, "joiner-1", &part(&[2])).unwrap();
        store.commit(1, &manifest(1, 2)).unwrap();

        let assert_only_epoch_1 = |when: &str| {
            assert_eq!(store.latest_complete().unwrap(), Some(1), "{when}");
            assert_eq!(store.epochs().unwrap(), vec![1], "{when}");
            let scan = load_latest_verified(&store).unwrap();
            let image = scan.image.expect("epoch 1 restores");
            assert_eq!(image.epoch, 1, "{when}");
            assert_eq!(image.cut_id, 2, "{when}");
            assert!(
                scan.quarantined.is_empty(),
                "{when}: nothing committed to quarantine"
            );
            let report = scrub(&store).unwrap();
            assert_eq!((report.verified(), report.corrupt()), (1, 0), "{when}");
        };

        // Kill point 1: crash between part writes — epoch 2 has one of
        // its two parts.
        store.put(2, "joiner-0", &part(&[3])).unwrap();
        assert_only_epoch_1("crash between part writes");

        // Kill point 2: all parts landed, crash before the manifest was
        // even staged.
        store.put(2, "joiner-1", &part(&[4])).unwrap();
        assert_only_epoch_1("crash after last part, before MANIFEST.tmp");

        // Kill point 3: MANIFEST.tmp fully written, crash before the
        // rename — the commit point was never crossed.
        let tmp = dir.join("epoch-2").join("MANIFEST.tmp");
        fs::write(&tmp, manifest(2, 4)).unwrap();
        assert_only_epoch_1("crash between MANIFEST.tmp write and rename");

        // Completing the rename is exactly the commit: epoch 2 appears,
        // whole, with nothing to quarantine.
        fs::rename(&tmp, dir.join("epoch-2").join("MANIFEST")).unwrap();
        assert_eq!(store.latest_complete().unwrap(), Some(2));
        assert_eq!(store.epochs().unwrap(), vec![1, 2]);
        let scan = load_latest_verified(&store).unwrap();
        assert_eq!(scan.image.expect("epoch 2 restores").epoch, 2);
        assert!(scan.quarantined.is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn manifest_roundtrips_with_and_without_partition() {
        let with = Manifest {
            epoch: 7,
            cut_id: 399,
            k: 4,
            bistream: true,
            partition: Some(LengthPartition::from_uppers(vec![4, 9, 100])),
        };
        assert_eq!(Manifest::decode(&with.encode()).unwrap(), with);
        let without = Manifest {
            epoch: 1,
            cut_id: 0,
            k: 1,
            bistream: false,
            partition: None,
        };
        assert_eq!(Manifest::decode(&without.encode()).unwrap(), without);
        assert!(Manifest::decode(&with.encode()[..10]).is_err());
        let mut bad = with.encode();
        bad[0] ^= 0xff;
        assert!(Manifest::decode(&bad).is_err());
    }

    #[test]
    fn coordinator_commits_when_all_tasks_publish_and_truncates_replay() {
        let recovery = Arc::new(RecoveryState::new(2, Window::Unbounded));
        for id in 0..10 {
            let target = (id % 2) as usize;
            recovery.buffer_index_target(
                target,
                crate::recovery::ReplayEntry {
                    record: rec(id),
                    side: None,
                },
            );
        }
        let cfg = CheckpointConfig::in_memory(5);
        let coord = CheckpointCoordinator::new(2, &cfg, Arc::clone(&recovery)).unwrap();
        let epoch = coord.begin_epoch(Timestamp::ZERO, 9, vec![Some(8), Some(7)], false, None);
        assert_eq!(epoch, 1);
        assert!(
            coord.restore_and_replay_for(0).0.is_none(),
            "nothing committed yet"
        );

        let first = coord.publish(epoch, 0, &entries(&[0, 2, 4, 6, 8]));
        assert!(!first.completed);
        assert_eq!(coord.epochs_committed(), 0);
        assert_eq!(recovery.buffered(0), 5, "no truncation before commit");

        let second = coord.publish(epoch, 1, &entries(&[1, 3, 5, 7, 9]));
        assert!(second.completed);
        assert_eq!(coord.epochs_committed(), 1);
        assert_eq!(coord.latest_complete(), Some(1));
        // Grace retention: the first commit truncates nothing — the buffer
        // must still reach back past this epoch so a restore that has to
        // quarantine it stays exact.
        assert_eq!(recovery.buffered(0), 5);
        assert_eq!(recovery.buffered(1), 5);

        let (e, restored) = coord.restore_and_replay_for(1).0.unwrap();
        assert_eq!(e, 1);
        let ids: Vec<u64> = restored.iter().map(|(_, r)| r.id().0).collect();
        assert_eq!(ids, vec![1, 3, 5, 7, 9]);

        // The second commit truncates to the *first* epoch's cuts (one
        // epoch behind): task 0 ≤ 8 drops all five, task 1 ≤ 7 keeps 9.
        let e2 = coord.begin_epoch(Timestamp::ZERO, 9, vec![Some(8), Some(9)], false, None);
        assert!(!coord.publish(e2, 0, &entries(&[0, 2, 4, 6, 8])).completed);
        assert!(coord.publish(e2, 1, &entries(&[1, 3, 5, 7, 9])).completed);
        assert_eq!(recovery.buffered(0), 0);
        assert_eq!(recovery.buffered(1), 1);
        assert!(coord.integrity().is_clean());
    }

    #[test]
    fn sealed_payload_roundtrips_and_rejects_every_covered_flip() {
        let sealed = seal_payload(b"hello snapshots");
        assert_eq!(open_payload(&sealed).unwrap(), b"hello snapshots");
        for bit in 0..sealed.len() * 8 {
            let mut bad = sealed.clone();
            bad[bit / 8] ^= 1 << (bit % 8);
            assert!(open_payload(&bad).is_err(), "undetected flip at bit {bit}");
        }
    }

    #[test]
    fn envelope_less_payloads_are_rejected() {
        let manifest = Manifest {
            epoch: 3,
            cut_id: 10,
            k: 1,
            bistream: false,
            partition: None,
        }
        .encode();
        let part = encode_window_vec(&entries(&[1, 2])).unwrap();
        for raw in [&manifest[..], &part[..], &[][..]] {
            let err = open_payload(raw).expect_err("no envelope, no trust");
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        }
    }

    /// Commits two epochs, bit-rots the newest part, and proves the in-run
    /// restore quarantines it, falls back one epoch, and still pairs the
    /// older snapshot with exactly the replay suffix past *its* cut.
    #[test]
    fn in_run_restore_falls_back_past_a_corrupt_snapshot() {
        let recovery = Arc::new(RecoveryState::new(1, Window::Unbounded));
        for id in 0..10 {
            recovery.buffer_index_target(
                0,
                crate::recovery::ReplayEntry {
                    record: rec(id),
                    side: None,
                },
            );
        }
        recovery.mark_processed(0, 9, 9);
        let store = Arc::new(MemStore::new());
        let cfg = CheckpointConfig::new(5, Arc::clone(&store) as Arc<dyn SnapshotStore>);
        let coord = CheckpointCoordinator::new(1, &cfg, Arc::clone(&recovery)).unwrap();
        let e1 = coord.begin_epoch(Timestamp::ZERO, 4, vec![Some(4)], false, None);
        coord.publish(e1, 0, &entries(&[0, 1, 2, 3, 4]));
        let e2 = coord.begin_epoch(Timestamp::ZERO, 7, vec![Some(7)], false, None);
        coord.publish(e2, 0, &entries(&[0, 1, 2, 3, 4, 5, 6, 7]));

        // Clean restore first: newest epoch, replay only past its cut.
        let (snap, replay) = coord.restore_and_replay_for(0);
        assert_eq!(snap.unwrap().0, e2);
        let ids: Vec<u64> = replay.iter().map(|e| e.record.id().0).collect();
        assert_eq!(ids, vec![8, 9], "replay must not overlap the snapshot");

        // Bit-rot the newest epoch's only part in place.
        store
            .parts
            .lock()
            .get_mut(&(e2, "joiner-0".to_owned()))
            .unwrap()[12] ^= 1;
        let (snap, replay) = coord.restore_and_replay_for(0);
        let (epoch, restored) = snap.expect("fallback epoch must restore");
        assert_eq!(epoch, e1);
        let ids: Vec<u64> = restored.iter().map(|(_, r)| r.id().0).collect();
        assert_eq!(ids, vec![0, 1, 2, 3, 4]);
        let ids: Vec<u64> = replay.iter().map(|e| e.record.id().0).collect();
        assert_eq!(ids, vec![5, 6, 7, 8, 9], "grace retention covers the gap");
        let integ = coord.integrity();
        assert_eq!(integ.corrupt_snapshot_parts, 1);
        assert_eq!(integ.quarantined_epochs, 1);
        assert_eq!(integ.restore_fallback_depth, 1);

        // The quarantine sticks: a later restore skips the epoch without
        // re-reading (and re-counting) it.
        let (snap, _) = coord.restore_and_replay_for(0);
        assert_eq!(snap.unwrap().0, e1);
        assert_eq!(coord.integrity().corrupt_snapshot_parts, 1);
    }

    #[test]
    fn verified_load_falls_back_to_newest_clean_epoch_and_scrub_finds_all_rot() {
        let store = MemStore::new();
        let part = |ids: &[u64]| seal_payload(&encode_window_vec(&entries(ids)).unwrap());
        let manifest = |epoch| {
            seal_payload(
                &Manifest {
                    epoch,
                    cut_id: epoch * 10,
                    k: 1,
                    bistream: false,
                    partition: None,
                }
                .encode(),
            )
        };
        for epoch in 1..=3u64 {
            store.put(epoch, "joiner-0", &part(&[epoch])).unwrap();
            store.commit(epoch, &manifest(epoch)).unwrap();
        }
        // Rot epoch 3's part and epoch 2's manifest.
        store
            .parts
            .lock()
            .get_mut(&(3, "joiner-0".to_owned()))
            .unwrap()[9] ^= 0x40;
        store.manifests.lock().get_mut(&2).unwrap()[9] ^= 0x04;

        let scan = load_latest_verified(&store).unwrap();
        let image = scan.image.as_ref().expect("epoch 1 is clean");
        assert_eq!(image.epoch, 1);
        assert_eq!(scan.quarantined, vec![3, 2]);
        assert_eq!(scan.corrupt_snapshot_parts, 1);
        assert_eq!(scan.corrupt_manifests, 1);
        assert_eq!(scan.fallback_depth(), 2);
        assert_eq!(scan.integrity().quarantined_epochs, 2);

        let report = scrub(&store).unwrap();
        assert_eq!(report.epochs.len(), 3);
        assert_eq!(report.verified(), 1);
        assert_eq!(report.corrupt(), 2);
        assert!(!report.is_clean());
        assert!(report.epochs[0].ok && report.epochs[0].epoch == 1);
        let text = report.to_string();
        assert!(text.contains("CORRUPT") && text.contains("1 verified, 2 corrupt"));
    }

    #[test]
    fn verified_load_of_an_all_corrupt_store_restores_nothing_but_reports() {
        let store = MemStore::new();
        store
            .put(
                1,
                "joiner-0",
                &seal_payload(&encode_window_vec(&entries(&[1])).unwrap()),
            )
            .unwrap();
        store
            .commit(
                1,
                &seal_payload(
                    &Manifest {
                        epoch: 1,
                        cut_id: 1,
                        k: 1,
                        bistream: false,
                        partition: None,
                    }
                    .encode(),
                ),
            )
            .unwrap();
        store
            .parts
            .lock()
            .get_mut(&(1, "joiner-0".to_owned()))
            .unwrap()[10] ^= 2;
        let scan = load_latest_verified(&store).unwrap();
        assert!(scan.image.is_none());
        assert_eq!(scan.quarantined, vec![1]);
        assert_eq!(scan.fallback_depth(), 1);
    }

    #[test]
    fn epoch_numbering_resumes_after_existing_checkpoints() {
        let store: Arc<dyn SnapshotStore> = Arc::new(MemStore::new());
        store.put(4, "joiner-0", b"old").unwrap();
        store.commit(4, b"m").unwrap();
        let cfg = CheckpointConfig::new(10, Arc::clone(&store));
        let recovery = Arc::new(RecoveryState::new(1, Window::Unbounded));
        let coord = CheckpointCoordinator::new(1, &cfg, recovery).unwrap();
        let epoch = coord.begin_epoch(Timestamp::ZERO, 0, vec![None], false, None);
        assert_eq!(epoch, 5, "epochs continue after the store's history");
    }

    #[test]
    fn verified_load_unions_and_dedups_task_windows() {
        let store = MemStore::new();
        assert!(load_latest_verified(&store).unwrap().image.is_none());
        // Replicated record 5 appears in both task snapshots (broadcast-
        // style routing); the image must carry it once.
        let part0 = encode_window_vec(&entries(&[1, 5])).unwrap();
        let part1 = encode_window_vec(&[
            (Some(Side::Left), rec(2)),
            (None, rec(5)),
            (Some(Side::Right), rec(9)),
        ])
        .unwrap();
        store.put(2, "joiner-0", &seal_payload(&part0)).unwrap();
        store.put(2, "joiner-1", &seal_payload(&part1)).unwrap();
        store
            .commit(
                2,
                &seal_payload(
                    &Manifest {
                        epoch: 2,
                        cut_id: 9,
                        k: 2,
                        bistream: false,
                        partition: Some(LengthPartition::from_uppers(vec![3, 50])),
                    }
                    .encode(),
                ),
            )
            .unwrap();
        let scan = load_latest_verified(&store).unwrap();
        assert!(scan.quarantined.is_empty());
        let image = scan.image.unwrap();
        assert_eq!(image.epoch, 2);
        assert_eq!(image.cut_id, 9);
        assert_eq!(image.k, 2);
        assert!(!image.bistream);
        assert!(image.partition.is_some());
        let ids: Vec<u64> = image.window.iter().map(|(_, r)| r.id().0).collect();
        assert_eq!(ids, vec![1, 2, 5, 9]);
    }

    #[test]
    fn verified_load_quarantines_a_complete_epoch_with_missing_parts() {
        let store = MemStore::new();
        store
            .put(
                1,
                "joiner-0",
                &seal_payload(&encode_window_vec(&entries(&[1])).unwrap()),
            )
            .unwrap();
        store
            .commit(
                1,
                &seal_payload(
                    &Manifest {
                        epoch: 1,
                        cut_id: 3,
                        k: 2,
                        bistream: false,
                        partition: None,
                    }
                    .encode(),
                ),
            )
            .unwrap();
        let scan = load_latest_verified(&store).unwrap();
        assert!(scan.image.is_none(), "a committed epoch lost a part");
        assert_eq!(scan.quarantined, vec![1]);
        assert_eq!(scan.corrupt_snapshot_parts, 1);
        let err = scrub(&store).unwrap().epochs[0].error.clone().unwrap();
        assert!(err.contains("missing part"), "{err}");
    }

    #[test]
    #[should_panic(expected = "zero checkpoint interval")]
    fn zero_interval_rejected() {
        let _ = CheckpointConfig::in_memory(0);
    }
}
