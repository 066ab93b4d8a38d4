//! Epoch-based coordinated checkpointing: durable snapshots.
//!
//! The dispatcher periodically injects a [`JoinMsg::Barrier`] control
//! tuple down every joiner wire (one barrier per *epoch*, every
//! [`CheckpointConfig::interval`] dispatched records). Barriers ride the
//! same FIFO channels as data, so when a joiner sees the epoch-`e` barrier
//! its local state reflects exactly the records dispatched before the
//! barrier — a Chandy–Lamport consistent cut, with no stop-the-world
//! pause. The joiner encodes its live window straight from its index
//! ([`ssj_core::snapshot::encode_joiner`]), publishes the bytes to the
//! [`CheckpointCoordinator`], and moves on: it never waits on the store.
//!
//! The [`CheckpointCoordinator`] tracks which of the `k` tasks have
//! published for each in-flight epoch, and owns the run's one store
//! writer thread ([`STORE_WRITER_THREAD`]). Capturing a snapshot is
//! synchronous at the barrier; persisting it is not. The writer seals and
//! stages every part in hand-over order, and when an epoch's last part is
//! staged it **commits** the epoch: the manifest (cut id, topology shape,
//! routing partition) is written atomically.
//! [`CheckpointCoordinator::finish`] joins the writer, so a run that
//! returns has committed every epoch it completed. Checkpoints are
//! durability only: a whole-process restart rebuilds a topology from the
//! latest complete checkpoint through [`load_latest_verified`] and the
//! driver's `restore_from` path, while a joiner that crashes mid-run
//! rebuilds from its replay buffer alone ([`crate::recovery`]) and never
//! reads the store.
//!
//! Two stores are provided: [`MemStore`] (tests, simulation) and
//! [`FileStore`] (one `epoch-<e>` file per committed epoch, written with
//! one `sync_all` and renamed into place).
//!
//! # Integrity
//!
//! Every snapshot part and manifest payload is wrapped in an 8-byte
//! envelope — [`STORE_MAGIC`] plus a CRC32C of the payload (see
//! [`seal_payload`] / [`open_payload`]) — sealed by the coordinator's
//! store writer, above the store, so any [`SnapshotStore`], including
//! fault-injecting test wrappers, exercises verification on read-back. A payload without the
//! envelope, or one that fails its check, is never trusted:
//! [`load_latest_verified`] quarantines the epoch and falls back to the
//! newest fully-verified earlier one, and [`scrub`] audits a whole store
//! offline. See `DESIGN.md` §13 for the threat model.
//!
//! [`JoinMsg::Barrier`]: crate::msg::JoinMsg::Barrier

use parking_lot::Mutex;
use ssj_core::snapshot::{decode_window_slice, SnapshotEntry};
use ssj_partition::LengthPartition;
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::fmt;
use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use stormlite::Timestamp;

/// Durable storage for checkpoint snapshots, pluggable per run.
///
/// `part` names one task's slice of an epoch (`"joiner-3"`). An epoch is
/// *complete* only once [`commit`](Self::commit) has recorded its
/// manifest; readers must ignore parts of uncommitted epochs (a crash may
/// leave them behind).
pub trait SnapshotStore: fmt::Debug + Send + Sync {
    /// Stages one part of an epoch's checkpoint, replacing any earlier
    /// staging of the same part. A staged part is neither durable nor
    /// visible to a restore until [`commit`](Self::commit) returns.
    fn put(&self, epoch: u64, part: &str, bytes: &[u8]) -> io::Result<()>;

    /// Reads one part of an epoch's checkpoint.
    fn get(&self, epoch: u64, part: &str) -> io::Result<Option<Vec<u8>>>;

    /// Atomically makes `epoch`'s staged parts durable and marks it
    /// complete by recording its manifest. After this returns, a crashed
    /// process may restore from `epoch`.
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

/// File-backed [`SnapshotStore`]: one `epoch-<e>` file per committed
/// epoch, holding its sealed parts and then its manifest.
///
/// [`put`](SnapshotStore::put) appends a part to the epoch's
/// `epoch-<e>.tmp` staging file, unsynced and invisible to every reader.
/// [`commit`](SnapshotStore::commit) appends the manifest, calls
/// `sync_all` once and renames the file to `epoch-<e>`: the rename is the
/// commit point, so an epoch file either exists complete or not at all. A
/// committed epoch is immutable: a later `put` or `commit` of it fails.
///
/// File layout: the magic `"SNEF"` (u32 le), then one entry per `put`
/// and a last entry named `MANIFEST`, each
/// `[name_len u16 le][name][len u64 le][bytes]`. A later entry of the same
/// name supersedes an earlier one. A file that does not parse to its
/// `MANIFEST` entry (a torn write) is corrupt: every read of it fails with
/// [`io::ErrorKind::InvalidData`], and a restore quarantines it.
#[derive(Debug)]
pub struct FileStore {
    dir: PathBuf,
    /// Staging files of the epochs put to but not yet committed.
    staging: Mutex<BTreeMap<u64, fs::File>>,
}

/// Magic leading every epoch file of a [`FileStore`] (`"SNEF"` on disk).
const EPOCH_FILE_MAGIC: u32 = 0x4645_4e53;

/// The entry name of an epoch file's manifest.
const MANIFEST_ENTRY: &str = "MANIFEST";

impl FileStore {
    /// Opens (creating if needed) a snapshot directory.
    ///
    /// # Errors
    /// Fails if the directory cannot be created.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<Self> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(Self {
            dir,
            staging: Mutex::new(BTreeMap::new()),
        })
    }

    /// The directory this store persists into.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn epoch_path(&self, epoch: u64) -> PathBuf {
        self.dir.join(format!("epoch-{epoch}"))
    }

    fn staging_path(&self, epoch: u64) -> PathBuf {
        self.dir.join(format!("epoch-{epoch}.tmp"))
    }

    /// Appends one entry to `epoch`'s staging file, creating it on the
    /// epoch's first entry unless the epoch is already committed.
    fn stage(&self, epoch: u64, name: &str, bytes: &[u8]) -> io::Result<()> {
        let mut staging = self.staging.lock();
        let file = match staging.entry(epoch) {
            Entry::Occupied(f) => f.into_mut(),
            Entry::Vacant(slot) => {
                if self.epoch_path(epoch).exists() {
                    return Err(io::Error::new(
                        io::ErrorKind::AlreadyExists,
                        format!("epoch {epoch} is committed and immutable"),
                    ));
                }
                let mut file = fs::File::create(self.staging_path(epoch))?;
                file.write_all(&EPOCH_FILE_MAGIC.to_le_bytes())?;
                slot.insert(file)
            }
        };
        let name_len = u16::try_from(name.len())
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "part name too long"))?;
        file.write_all(&name_len.to_le_bytes())?;
        file.write_all(name.as_bytes())?;
        file.write_all(&(bytes.len() as u64).to_le_bytes())?;
        file.write_all(bytes)
    }

    /// The last entry named `name` in committed `epoch`'s file, `None`
    /// when the epoch is not committed or holds no such entry.
    fn entry(&self, epoch: u64, name: &str) -> io::Result<Option<Vec<u8>>> {
        let bytes = match fs::read(self.epoch_path(epoch)) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e),
        };
        let torn = || {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("epoch {epoch} file is torn"),
            )
        };
        if bytes.get(..4) != Some(&EPOCH_FILE_MAGIC.to_le_bytes()[..]) {
            return Err(torn());
        }
        let take = |at: usize, n: usize| {
            at.checked_add(n)
                .and_then(|end| bytes.get(at..end))
                .ok_or_else(torn)
        };
        let (mut at, mut found, mut last) = (4, None, None);
        while at < bytes.len() {
            let name_len = u16::from_le_bytes(take(at, 2)?.try_into().expect("2 bytes")) as usize;
            let entry_name = take(at + 2, name_len)?;
            at += 2 + name_len;
            let len = u64::from_le_bytes(take(at, 8)?.try_into().expect("8 bytes"));
            let len = usize::try_from(len).map_err(|_| torn())?;
            let body = take(at + 8, len)?;
            at += 8 + len;
            if entry_name == name.as_bytes() {
                found = Some(body);
            }
            last = Some(entry_name);
        }
        if last != Some(MANIFEST_ENTRY.as_bytes()) {
            return Err(torn());
        }
        Ok(found.map(<[u8]>::to_vec))
    }
}

impl SnapshotStore for FileStore {
    fn put(&self, epoch: u64, part: &str, bytes: &[u8]) -> io::Result<()> {
        if part == MANIFEST_ENTRY {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "MANIFEST is not a part name",
            ));
        }
        self.stage(epoch, part, bytes)
    }

    fn get(&self, epoch: u64, part: &str) -> io::Result<Option<Vec<u8>>> {
        self.entry(epoch, part)
    }

    fn commit(&self, epoch: u64, manifest: &[u8]) -> io::Result<()> {
        self.stage(epoch, MANIFEST_ENTRY, manifest)?;
        let file = self
            .staging
            .lock()
            .remove(&epoch)
            .expect("staged just above");
        file.sync_all()?;
        drop(file);
        // The rename is the commit point: the epoch file either exists
        // complete or not at all, so a crash mid-checkpoint is
        // indistinguishable from never having started the epoch.
        fs::rename(self.staging_path(epoch), self.epoch_path(epoch))
    }

    fn manifest(&self, epoch: u64) -> io::Result<Option<Vec<u8>>> {
        self.entry(epoch, MANIFEST_ENTRY)
    }

    fn epochs(&self) -> io::Result<Vec<u64>> {
        let mut epochs = Vec::new();
        for entry in fs::read_dir(&self.dir)? {
            let entry = entry?;
            // Only a renamed file is committed: a staging file's name does
            // not parse, and a directory is not an epoch.
            let committed = entry
                .file_name()
                .to_str()
                .and_then(|n| n.strip_prefix("epoch-"))
                .and_then(|e| e.parse::<u64>().ok());
            if let Some(epoch) = committed {
                if entry.file_type()?.is_file() {
                    epochs.push(epoch);
                }
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
    /// Dispatch a barrier every this many routed records. The data at
    /// risk in a whole-process failure is bounded by roughly this many
    /// records.
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
    /// `true` iff this publication handed over the epoch's last part: the
    /// store writer commits the epoch next.
    pub completed: bool,
    /// When the epoch's barrier was injected (for latency accounting).
    pub injected_at: Timestamp,
}

/// One in-flight epoch awaiting snapshots.
#[derive(Debug)]
struct Inflight {
    manifest: Manifest,
    injected_at: Timestamp,
    /// Tasks yet to publish.
    pending: usize,
}

/// One store operation, in the order the store writer runs them.
enum StoreOp {
    /// One task's encoded (unsealed) window snapshot.
    Put {
        epoch: u64,
        task: usize,
        window: Vec<u8>,
    },
    /// Commits an epoch whose every part was handed over before this.
    Commit { epoch: u64, manifest: Manifest },
}

#[derive(Debug)]
struct CoordInner {
    next_epoch: u64,
    inflight: BTreeMap<u64, Inflight>,
    /// The store writer's input; `None` once [`CheckpointCoordinator::finish`]
    /// has closed it.
    ops: Option<SyncSender<StoreOp>>,
}

/// What the store writer reports back.
#[derive(Debug, Default)]
struct WriterState {
    committed: AtomicU64,
    /// The first store error, after which the writer stops.
    failure: Mutex<Option<String>>,
}

/// The name of the thread that runs every store write of a
/// [`CheckpointCoordinator`].
pub const STORE_WRITER_THREAD: &str = "snapshot-store";

/// Shared epoch bookkeeping between the dispatcher (which opens epochs)
/// and the joiners (which publish snapshots into them), and the owner of
/// the run's store writer thread.
///
/// A publishing task only encodes its part and hands the bytes over: the
/// writer thread seals each part, stages it, and commits each epoch once
/// its last part is staged, so no task thread runs a store write. The
/// writer's input holds at most one epoch (`k` parts and a commit); a task
/// that outruns the store by more than that waits for room. A store error fails the
/// run at the next [`publish`](Self::publish) or at
/// [`finish`](Self::finish), whichever comes first.
#[derive(Debug)]
pub struct CheckpointCoordinator {
    k: usize,
    interval: u64,
    inner: Mutex<CoordInner>,
    writer: Arc<WriterState>,
    thread: Mutex<Option<JoinHandle<()>>>,
}

impl CheckpointCoordinator {
    /// A coordinator for `k` joiner tasks, committing into `cfg.store`,
    /// with its store writer thread started. Epoch numbering continues
    /// after whatever the store already holds, so restarting into a used
    /// [`FileStore`] directory never collides with prior checkpoints.
    ///
    /// # Errors
    /// Fails if the store cannot report its latest complete epoch, or the
    /// writer thread cannot be started.
    pub fn new(k: usize, cfg: &CheckpointConfig) -> io::Result<Self> {
        let next_epoch = cfg.store.latest_complete()?.map_or(1, |e| e + 1);
        let (ops, input) = sync_channel(k + 1);
        let writer = Arc::new(WriterState::default());
        let (store, state) = (Arc::clone(&cfg.store), Arc::clone(&writer));
        let thread = thread::Builder::new()
            .name(STORE_WRITER_THREAD.to_owned())
            .spawn(move || write_epochs(store.as_ref(), &input, &state))?;
        Ok(Self {
            k,
            interval: cfg.interval,
            inner: Mutex::new(CoordInner {
                next_epoch,
                inflight: BTreeMap::new(),
                ops: Some(ops),
            }),
            writer,
            thread: Mutex::new(Some(thread)),
        })
    }

    /// Records between barriers.
    pub fn interval(&self) -> u64 {
        self.interval
    }

    /// Dispatcher side: opens a new epoch at a consistent cut. `cut_id` is
    /// the id of the last record dispatched before the barrier. Returns the
    /// epoch number to stamp on the barrier.
    pub fn begin_epoch(
        &self,
        injected_at: Timestamp,
        cut_id: u64,
        bistream: bool,
        partition: Option<LengthPartition>,
    ) -> u64 {
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
                injected_at,
                pending: self.k,
            },
        );
        epoch
    }

    /// Joiner side: hands `task`'s encoded window snapshot for `epoch`
    /// (the [`ssj_core::snapshot`] encoding, unsealed) to the store
    /// writer. The publication of the epoch's last part also hands over
    /// its commit.
    ///
    /// # Panics
    /// Panics on an unknown epoch (a barrier the dispatcher never
    /// opened — FIFO wires make that a protocol violation, not an
    /// environmental failure), after [`finish`](Self::finish), or once a
    /// store write has failed (checkpointing to a broken store must be
    /// loud, never silently skipped).
    pub fn publish(&self, epoch: u64, task: usize, window: Vec<u8>) -> PublishOutcome {
        let bytes = window.len() as u64;
        // Held across the hand-over, so every part of an epoch enters the
        // writer's input before its commit.
        let mut inner = self.inner.lock();
        self.check_store();
        let inflight = inner
            .inflight
            .get_mut(&epoch)
            .expect("barrier for an unopened epoch");
        assert!(inflight.pending > 0, "epoch over-published");
        inflight.pending -= 1;
        let (injected_at, completed) = (inflight.injected_at, inflight.pending == 0);
        let done = completed.then(|| inner.inflight.remove(&epoch).expect("present above"));
        let ops = inner.ops.as_ref().expect("publish after finish");
        self.hand_over(
            ops,
            StoreOp::Put {
                epoch,
                task,
                window,
            },
        );
        if let Some(done) = done {
            let manifest = done.manifest;
            self.hand_over(ops, StoreOp::Commit { epoch, manifest });
        }
        PublishOutcome {
            bytes,
            completed,
            injected_at,
        }
    }

    fn hand_over(&self, ops: &SyncSender<StoreOp>, op: StoreOp) {
        if ops.send(op).is_err() {
            // The writer stopped: a store error, or a store that panicked.
            self.check_store();
            panic!("snapshot store write failed: the store writer panicked");
        }
    }

    /// Panics if a store write has failed.
    fn check_store(&self) {
        if let Some(e) = &*self.writer.failure.lock() {
            panic!("snapshot store write failed: {e}");
        }
    }

    /// Closes the writer's input and joins the writer thread, so every
    /// epoch handed over is committed when this returns. Every engine
    /// calls it once its tasks are done, before it reports. Idempotent.
    ///
    /// # Panics
    /// Panics if a store write failed, or re-raises the writer's panic.
    pub fn finish(&self) {
        drop(self.inner.lock().ops.take());
        if let Some(thread) = self.thread.lock().take() {
            if let Err(panic) = thread.join() {
                std::panic::resume_unwind(panic);
            }
        }
        self.check_store();
    }

    /// Epochs the store writer has committed (not counting pre-existing
    /// checkpoints in the store): every completed epoch once
    /// [`finish`](Self::finish) has returned.
    pub fn epochs_committed(&self) -> u64 {
        self.writer.committed.load(Ordering::Acquire)
    }
}

impl Drop for CheckpointCoordinator {
    /// A coordinator dropped without [`finish`](Self::finish) — its run
    /// failed — still closes its writer's input and joins the thread; an
    /// error or panic there is the failed run's to report, not this one's.
    fn drop(&mut self) {
        drop(self.inner.get_mut().ops.take());
        if let Some(thread) = self.thread.get_mut().take() {
            let _ = thread.join();
        }
    }
}

/// The store writer thread: runs each operation in hand-over order and
/// stops at the first store error, recording it.
fn write_epochs(store: &dyn SnapshotStore, input: &Receiver<StoreOp>, state: &WriterState) {
    for op in input {
        let written = match op {
            StoreOp::Put {
                epoch,
                task,
                window,
            } => store.put(epoch, &part_name(task), &seal_payload(&window)),
            StoreOp::Commit { epoch, manifest } => store
                .commit(epoch, &seal_payload(&manifest.encode()))
                .map(|()| {
                    state.committed.fetch_add(1, Ordering::Release);
                }),
        };
        if let Err(e) = written {
            *state.failure.lock() = Some(format!("{e:?}"));
            return;
        }
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
    use ssj_core::snapshot::encode_window_vec;
    use ssj_text::{Record, RecordId, TokenId};

    fn rec(id: u64) -> Record {
        Record::from_sorted(RecordId(id), id, vec![TokenId(id as u32 + 1)])
    }

    fn entries(ids: &[u64]) -> Vec<SnapshotEntry> {
        ids.iter().map(|&id| (None, rec(id))).collect()
    }

    fn window(ids: &[u64]) -> Vec<u8> {
        encode_window_vec(&entries(ids)).unwrap()
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
        // A later epoch supersedes; restaging a part before the commit
        // replaces it (a retried checkpoint attempt).
        store.put(3, "joiner-0", b"three-first").unwrap();
        store.put(3, "joiner-0", b"three").unwrap();
        store.commit(3, b"manifest-3").unwrap();
        assert_eq!(store.latest_complete().unwrap(), Some(3));
        assert_eq!(store.epochs().unwrap(), vec![1, 3]);
        assert_eq!(store.get(3, "joiner-0").unwrap().unwrap(), b"three");
    }

    fn scratch_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ssj-ckpt-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn mem_store_roundtrips() {
        roundtrip_store(&MemStore::new());
    }

    #[test]
    fn file_store_roundtrips() {
        let dir = scratch_dir("rt");
        let store = FileStore::open(&dir).unwrap();
        roundtrip_store(&store);
        // A committed epoch is immutable.
        assert!(store.put(3, "joiner-0", b"three-again").is_err());
        assert!(store.commit(3, b"manifest-3-again").is_err());
        assert_eq!(store.get(3, "joiner-0").unwrap().unwrap(), b"three");
        assert_eq!(store.manifest(3).unwrap().unwrap(), b"manifest-3");
        // One file per committed epoch, no staging file left behind.
        let mut names: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        names.sort_unstable();
        assert_eq!(names, ["epoch-1", "epoch-3"]);
        // Reopening sees the committed state (durability).
        let reopened = FileStore::open(&dir).unwrap();
        assert_eq!(reopened.latest_complete().unwrap(), Some(3));
        assert_eq!(reopened.manifest(3).unwrap().unwrap(), b"manifest-3");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn file_store_crash_mid_commit_never_exposes_a_partial_epoch() {
        let dir = scratch_dir("crash");
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

        let assert_newest = |epoch: u64, cut_id: u64, when: &str| {
            assert_eq!(store.latest_complete().unwrap(), Some(epoch), "{when}");
            assert_eq!(
                store.epochs().unwrap(),
                (1..=epoch).collect::<Vec<_>>(),
                "{when}"
            );
            let scan = load_latest_verified(&store).unwrap();
            assert!(
                scan.quarantined.is_empty(),
                "{when}: nothing committed to quarantine"
            );
            let image = scan.image.expect("a clean epoch restores");
            assert_eq!((image.epoch, image.cut_id), (epoch, cut_id), "{when}");
            let report = scrub(&store).unwrap();
            assert_eq!(
                (report.verified(), report.corrupt()),
                (epoch as usize, 0),
                "{when}"
            );
        };

        // Staged parts of an uncommitted epoch are never visible: crash
        // between the part writes, and after the last one.
        store.put(2, "joiner-0", &part(&[3])).unwrap();
        assert_newest(1, 2, "crash between part writes");
        store.put(2, "joiner-1", &part(&[4])).unwrap();
        assert_newest(1, 2, "crash after the last part");
        assert_eq!(store.get(2, "joiner-0").unwrap(), None);
        assert_eq!(store.manifest(2).unwrap(), None);

        // A staging file written whole and synced but not renamed is
        // invisible: the commit point was never crossed.
        store.stage(2, MANIFEST_ENTRY, &manifest(2, 4)).unwrap();
        let staged = store.staging.lock().remove(&2).unwrap();
        staged.sync_all().unwrap();
        drop(staged);
        assert_newest(1, 2, "crash between the sync and the rename");

        // Completing the rename is exactly the commit: epoch 2 appears,
        // whole, with nothing to quarantine.
        fs::rename(dir.join("epoch-2.tmp"), dir.join("epoch-2")).unwrap();
        assert_newest(2, 4, "after the rename");

        // A torn epoch file is quarantined, and the restore falls back one
        // epoch.
        store.put(3, "joiner-0", &part(&[5])).unwrap();
        store.put(3, "joiner-1", &part(&[6])).unwrap();
        store.commit(3, &manifest(3, 6)).unwrap();
        assert_newest(3, 6, "epoch 3 committed");
        let path = dir.join("epoch-3");
        let len = fs::metadata(&path).unwrap().len();
        fs::OpenOptions::new()
            .write(true)
            .open(&path)
            .unwrap()
            .set_len(len - 5)
            .unwrap();
        assert_eq!(store.epochs().unwrap(), vec![1, 2, 3]);
        let scan = load_latest_verified(&store).unwrap();
        assert_eq!(scan.quarantined, vec![3]);
        assert_eq!(scan.image.expect("epoch 2 restores").epoch, 2);
        let report = scrub(&store).unwrap();
        assert_eq!((report.verified(), report.corrupt()), (2, 1));
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
    fn coordinator_commits_when_all_tasks_publish() {
        let store = Arc::new(MemStore::new());
        let cfg = CheckpointConfig::new(5, Arc::clone(&store) as Arc<dyn SnapshotStore>);
        let coord = CheckpointCoordinator::new(2, &cfg).unwrap();
        let epoch = coord.begin_epoch(Timestamp::ZERO, 9, false, None);
        assert_eq!(epoch, 1);

        let first = coord.publish(epoch, 0, window(&[0, 2, 4, 6, 8]));
        assert!(!first.completed);
        assert_eq!(coord.epochs_committed(), 0);
        assert_eq!(
            store.manifest(1).unwrap(),
            None,
            "no commit before the last part"
        );

        let second = coord.publish(epoch, 1, window(&[1, 3, 5, 7, 9]));
        assert!(second.completed);
        coord.finish();
        assert_eq!(coord.epochs_committed(), 1);
        let manifest = store.manifest(1).unwrap().expect("committed");
        let manifest = Manifest::decode(open_payload(&manifest).unwrap()).unwrap();
        assert_eq!((manifest.epoch, manifest.cut_id, manifest.k), (1, 9, 2));

        let image = load_latest_verified(store.as_ref()).unwrap().image.unwrap();
        let ids: Vec<u64> = image.window.iter().map(|(_, r)| r.id().0).collect();
        assert_eq!(ids, (0..10).collect::<Vec<_>>());
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
        let coord = CheckpointCoordinator::new(1, &cfg).unwrap();
        let epoch = coord.begin_epoch(Timestamp::ZERO, 0, false, None);
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
