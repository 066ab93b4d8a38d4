//! Deterministic storage fault injection for checkpoint stores.
//!
//! [`FaultStore`] wraps any [`SnapshotStore`] and corrupts it on the way
//! through: bit-rot on read, torn writes, dropped commits, outright read
//! errors. Faults are injected *explicitly* (by epoch/part), so a test —
//! or a seeded property sweep deriving the fault list from its seed — is
//! a complete reproduction recipe. The wrapper sits *below* the
//! coordinator's seal/verify layer, which is exactly the point: every
//! fault it injects must surface as a classified checksum failure
//! (quarantine + fallback), never as a panic or a silently wrong restore.
//!
//! Faults are persistent, modelling a damaged medium rather than a
//! one-shot glitch: a bit-rotten part reads rotten every time, a torn
//! write tears every attempt at that part, a dropped commit drops every
//! commit of that epoch. Counters record how often each kind fired so
//! tests can assert the fault actually engaged.
//!
//! [`ThreadLogStore`] injects nothing: it records which thread ran each
//! store write.

use ssj_distrib::SnapshotStore;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// One injected storage fault. Matching is exact on epoch (and part,
/// where the fault is part-scoped).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreFault {
    /// Flip one bit of the stored bytes every time they are read.
    /// `part: None` rots the epoch's manifest instead of a part. The
    /// flipped bit is `offset`-th bit of the payload, wrapping on length,
    /// so any offset is valid against any payload.
    BitRot {
        /// Epoch whose bytes rot.
        epoch: u64,
        /// Part name, or `None` for the manifest.
        part: Option<String>,
        /// Bit position to flip (wraps modulo payload bit-length).
        offset: usize,
    },
    /// Persist only the first `keep` bytes of every write to this part —
    /// a torn write, as after power loss mid-`write(2)`.
    TornWrite {
        /// Epoch whose part tears.
        epoch: u64,
        /// Part name.
        part: String,
        /// Bytes that survive (clamped to the payload length).
        keep: usize,
    },
    /// Silently drop every commit of this epoch: parts land, the
    /// manifest never does — the store's rename "succeeded" into a
    /// crash. The epoch is forever uncommitted.
    CrashBeforeCommit {
        /// Epoch whose commit vanishes.
        epoch: u64,
    },
    /// Fail every read of this part with an I/O error — a dead sector.
    /// `part: None` fails the manifest read.
    ReadError {
        /// Epoch whose read fails.
        epoch: u64,
        /// Part name, or `None` for the manifest.
        part: Option<String>,
    },
}

/// How often each fault kind actually fired, for asserting a scripted
/// fault engaged rather than silently missing its target.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct FaultHits {
    /// Reads that returned bit-rotten bytes.
    pub bit_rot: u64,
    /// Writes that were torn short.
    pub torn_writes: u64,
    /// Commits that were dropped.
    pub dropped_commits: u64,
    /// Reads that failed with an injected error.
    pub read_errors: u64,
}

/// A [`SnapshotStore`] wrapper that injects [`StoreFault`]s into an inner
/// store. See the module docs for the fault model.
#[derive(Debug)]
pub struct FaultStore<S> {
    inner: S,
    faults: Mutex<Vec<StoreFault>>,
    bit_rot: AtomicU64,
    torn_writes: AtomicU64,
    dropped_commits: AtomicU64,
    read_errors: AtomicU64,
}

impl<S: SnapshotStore> FaultStore<S> {
    /// Wraps `inner` with no faults; [`inject`](Self::inject) arms them.
    pub fn new(inner: S) -> Self {
        Self {
            inner,
            faults: Mutex::new(Vec::new()),
            bit_rot: AtomicU64::new(0),
            torn_writes: AtomicU64::new(0),
            dropped_commits: AtomicU64::new(0),
            read_errors: AtomicU64::new(0),
        }
    }

    /// Arms one fault. Faults may be armed at any time, including between
    /// a crash and a restore.
    pub fn inject(&self, fault: StoreFault) {
        self.faults.lock().unwrap().push(fault);
    }

    /// Disarms every fault, leaving the damage already done in place.
    pub fn clear_faults(&self) {
        self.faults.lock().unwrap().clear();
    }

    /// How often each fault kind fired so far.
    pub fn hits(&self) -> FaultHits {
        FaultHits {
            bit_rot: self.bit_rot.load(Ordering::SeqCst),
            torn_writes: self.torn_writes.load(Ordering::SeqCst),
            dropped_commits: self.dropped_commits.load(Ordering::SeqCst),
            read_errors: self.read_errors.load(Ordering::SeqCst),
        }
    }

    /// The wrapped store.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// Applies read-side faults for `(epoch, part)` (`part: None` =
    /// manifest) to `bytes`; `Err` wins over rot.
    fn filter_read(
        &self,
        epoch: u64,
        part: Option<&str>,
        bytes: Option<Vec<u8>>,
    ) -> io::Result<Option<Vec<u8>>> {
        let faults = self.faults.lock().unwrap();
        for fault in faults.iter() {
            if let StoreFault::ReadError { epoch: e, part: p } = fault {
                if *e == epoch && p.as_deref() == part {
                    self.read_errors.fetch_add(1, Ordering::SeqCst);
                    return Err(io::Error::other("injected read error"));
                }
            }
        }
        let Some(mut payload) = bytes else {
            return Ok(None);
        };
        for fault in faults.iter() {
            if let StoreFault::BitRot {
                epoch: e,
                part: p,
                offset,
            } = fault
            {
                if *e == epoch && p.as_deref() == part && !payload.is_empty() {
                    let bit = offset % (payload.len() * 8);
                    payload[bit / 8] ^= 1 << (bit % 8);
                    self.bit_rot.fetch_add(1, Ordering::SeqCst);
                }
            }
        }
        Ok(Some(payload))
    }
}

impl<S: SnapshotStore> SnapshotStore for FaultStore<S> {
    fn put(&self, epoch: u64, part: &str, bytes: &[u8]) -> io::Result<()> {
        let keep = self.faults.lock().unwrap().iter().find_map(|f| match f {
            StoreFault::TornWrite {
                epoch: e,
                part: p,
                keep,
            } if *e == epoch && p == part => Some(*keep),
            _ => None,
        });
        match keep {
            Some(keep) => {
                self.torn_writes.fetch_add(1, Ordering::SeqCst);
                self.inner.put(epoch, part, &bytes[..keep.min(bytes.len())])
            }
            None => self.inner.put(epoch, part, bytes),
        }
    }

    fn get(&self, epoch: u64, part: &str) -> io::Result<Option<Vec<u8>>> {
        let bytes = self.inner.get(epoch, part)?;
        self.filter_read(epoch, Some(part), bytes)
    }

    fn commit(&self, epoch: u64, manifest: &[u8]) -> io::Result<()> {
        let dropped = self
            .faults
            .lock()
            .unwrap()
            .iter()
            .any(|f| matches!(f, StoreFault::CrashBeforeCommit { epoch: e } if *e == epoch));
        if dropped {
            self.dropped_commits.fetch_add(1, Ordering::SeqCst);
            // The caller believes the commit durable; the medium lost it.
            return Ok(());
        }
        self.inner.commit(epoch, manifest)
    }

    fn manifest(&self, epoch: u64) -> io::Result<Option<Vec<u8>>> {
        let bytes = self.inner.manifest(epoch)?;
        self.filter_read(epoch, None, bytes)
    }

    fn epochs(&self) -> io::Result<Vec<u64>> {
        self.inner.epochs()
    }
}

/// A [`SnapshotStore`] wrapper that records, for every `put` and
/// `commit`, the name of the thread that ran it — what shows that no
/// task thread ever waits on the store.
#[derive(Debug)]
pub struct ThreadLogStore<S> {
    inner: S,
    writers: Mutex<Vec<(&'static str, String)>>,
}

impl<S: SnapshotStore> ThreadLogStore<S> {
    /// Wraps `inner` with an empty log.
    pub fn new(inner: S) -> Self {
        Self {
            inner,
            writers: Mutex::new(Vec::new()),
        }
    }

    /// Every write so far, in order: `("put" | "commit", thread name)`
    /// (`"<unnamed>"` for a thread without a name).
    pub fn writers(&self) -> Vec<(&'static str, String)> {
        self.writers.lock().unwrap().clone()
    }

    fn log(&self, op: &'static str) {
        let name = std::thread::current()
            .name()
            .unwrap_or("<unnamed>")
            .to_owned();
        self.writers.lock().unwrap().push((op, name));
    }
}

impl<S: SnapshotStore> SnapshotStore for ThreadLogStore<S> {
    fn put(&self, epoch: u64, part: &str, bytes: &[u8]) -> io::Result<()> {
        self.log("put");
        self.inner.put(epoch, part, bytes)
    }

    fn get(&self, epoch: u64, part: &str) -> io::Result<Option<Vec<u8>>> {
        self.inner.get(epoch, part)
    }

    fn commit(&self, epoch: u64, manifest: &[u8]) -> io::Result<()> {
        self.log("commit");
        self.inner.commit(epoch, manifest)
    }

    fn manifest(&self, epoch: u64) -> io::Result<Option<Vec<u8>>> {
        self.inner.manifest(epoch)
    }

    fn epochs(&self) -> io::Result<Vec<u64>> {
        self.inner.epochs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssj_distrib::MemStore;

    #[test]
    fn faults_fire_and_count() {
        let store = FaultStore::new(MemStore::new());
        store.put(1, "a", &[0u8; 16]).unwrap();
        store.commit(1, b"m1").unwrap();

        // Clean passthrough first.
        assert_eq!(store.get(1, "a").unwrap().unwrap(), vec![0u8; 16]);
        assert_eq!(store.manifest(1).unwrap().unwrap(), b"m1");
        assert_eq!(store.epochs().unwrap(), vec![1]);
        assert_eq!(store.hits(), FaultHits::default());

        // Bit-rot on a part: exactly one bit differs, every read.
        store.inject(StoreFault::BitRot {
            epoch: 1,
            part: Some("a".into()),
            offset: 300, // wraps: 16 bytes = 128 bits, 300 % 128 = 44
        });
        let rotten = store.get(1, "a").unwrap().unwrap();
        assert_ne!(rotten, vec![0u8; 16]);
        assert_eq!(rotten[44 / 8], 1 << (44 % 8));
        assert_eq!(
            store.get(1, "a").unwrap().unwrap(),
            rotten,
            "rot is persistent"
        );
        assert_eq!(store.hits().bit_rot, 2);

        // Manifest rot is scoped separately from parts.
        store.inject(StoreFault::BitRot {
            epoch: 1,
            part: None,
            offset: 0,
        });
        assert_ne!(store.manifest(1).unwrap().unwrap(), b"m1");

        // Torn write: only a prefix lands.
        store.inject(StoreFault::TornWrite {
            epoch: 2,
            part: "a".into(),
            keep: 3,
        });
        store.put(2, "a", &[7u8; 10]).unwrap();
        assert_eq!(store.inner().get(2, "a").unwrap().unwrap(), vec![7u8; 3]);
        assert_eq!(store.hits().torn_writes, 1);

        // Dropped commit: Ok to the caller, nothing in the store.
        store.inject(StoreFault::CrashBeforeCommit { epoch: 2 });
        store.commit(2, b"m2").unwrap();
        assert_eq!(store.latest_complete().unwrap(), Some(1));
        assert_eq!(store.epochs().unwrap(), vec![1]);
        assert_eq!(store.hits().dropped_commits, 1);

        // Read error beats rot.
        store.inject(StoreFault::ReadError {
            epoch: 1,
            part: Some("a".into()),
        });
        assert!(store.get(1, "a").is_err());
        assert_eq!(store.hits().read_errors, 1);

        store.clear_faults();
        assert_eq!(
            store.manifest(1).unwrap().unwrap(),
            b"m1",
            "damage was read-side only"
        );
    }
}
