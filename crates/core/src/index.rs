//! Storage machinery shared by the indexed joiners: a flat columnar record
//! store with a token arena and liveness bitmap, an arena-backed inverted
//! prefix index with lazy posting pruning, a tombstoning slot slab for the
//! bundle joiner, a stamp-based candidate deduplication filter, and the
//! per-probe candidate accumulator the positional joiners share.
//!
//! The hot structures are **flat**: record token sets live back-to-back in
//! one `Vec<TokenId>` arena (so verification reads are contiguous), posting
//! lists live back-to-back in one `Vec<Posting>` arena addressed by
//! per-token `(start, len, cap)` ranges (so a candidate scan is a single
//! contiguous sweep, with the token → range step a direct array index for
//! ordinary token ids rather than a hash probe), and liveness is one bit
//! per slot (so the prune predicate never touches record payloads).
//!
//! Eviction marks slots dead; postings referencing dead slots are pruned
//! *lazily* while a list is scanned (the scan already pays for the
//! traversal), and the whole structure is compacted when the dead fraction
//! grows too large, so memory stays proportional to the live window.

use crate::window::EvictionQueue;
use ssj_text::{FxHashMap, Record, RecordId, TokenId};

/// Slot handle into a [`RecordStore`] or [`SlotStore`].
pub type Slot = u32;

/// Hints the CPU to pull `target`'s cache line in ahead of a read.
#[inline]
fn prefetch<T>(target: &T) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: prefetch is a pure cache hint on a valid address; it cannot
    // fault or alter program state.
    unsafe {
        std::arch::x86_64::_mm_prefetch(
            (target as *const T).cast::<i8>(),
            std::arch::x86_64::_MM_HINT_T0,
        );
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = target;
}

/// A tombstoning slab of values addressed by [`Slot`], with a liveness
/// bitmap so "is this slot live?" never touches the values, and one small
/// `Copy` **head** per slot in a dense column of its own. Used by the
/// bundle joiner, whose stored values are structured (not flat records):
/// what a candidate's first visit reads lives in the head column — a few
/// words per slot, packed — so a prefix scan touches the ~100-byte value
/// only for the candidates it goes on to verify. Head and value are
/// inserted, tombstoned and compacted together; a field lives in exactly
/// one of them.
#[derive(Debug)]
pub struct SlotStore<H, T> {
    slots: Vec<Option<T>>,
    heads: Vec<H>,
    live_bits: Vec<u64>,
    live: usize,
}

impl<H, T> Default for SlotStore<H, T> {
    fn default() -> Self {
        Self {
            slots: Vec::new(),
            heads: Vec::new(),
            live_bits: Vec::new(),
            live: 0,
        }
    }
}

impl<H: Copy, T> SlotStore<H, T> {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Stores a head and its value, returning their slot. Slots are not
    /// reused until [`compact`](Self::compact).
    pub fn insert(&mut self, head: H, value: T) -> Slot {
        let slot = self.slots.len() as Slot;
        self.slots.push(Some(value));
        self.heads.push(head);
        let word = slot as usize >> 6;
        if word >= self.live_bits.len() {
            self.live_bits.push(0);
        }
        self.live_bits[word] |= 1 << (slot & 63);
        self.live += 1;
        slot
    }

    /// Whether `slot` holds a live value — one bit test, no payload access.
    #[inline]
    pub fn is_live(&self, slot: Slot) -> bool {
        self.live_bits
            .get(slot as usize >> 6)
            .is_some_and(|w| w >> (slot & 63) & 1 == 1)
    }

    /// The head of `slot`.
    ///
    /// Valid for live slots; a dead slot still reads its last head until
    /// the next compaction, so callers must check liveness.
    #[inline]
    pub fn head(&self, slot: Slot) -> H {
        self.heads[slot as usize]
    }

    /// Hints the CPU to pull `slot`'s head into cache ahead of a
    /// [`head`](Self::head).
    #[inline]
    pub fn prefetch_head(&self, slot: Slot) {
        if let Some(h) = self.heads.get(slot as usize) {
            prefetch(h);
        }
    }

    /// The value in `slot`, if still live.
    #[inline]
    pub fn get(&self, slot: Slot) -> Option<&T> {
        self.slots.get(slot as usize).and_then(|s| s.as_ref())
    }

    /// Hints the CPU to pull `slot`'s value into cache ahead of a `get`.
    #[inline]
    pub fn prefetch(&self, slot: Slot) {
        if let Some(s) = self.slots.get(slot as usize) {
            prefetch(s);
        }
    }

    /// Mutable access to the head and value in `slot`, if still live.
    #[inline]
    pub fn get_mut(&mut self, slot: Slot) -> Option<(&mut H, &mut T)> {
        let value = self.slots.get_mut(slot as usize)?.as_mut()?;
        Some((&mut self.heads[slot as usize], value))
    }

    /// Tombstones `slot`, returning the value.
    pub fn remove(&mut self, slot: Slot) -> Option<T> {
        let r = self.slots.get_mut(slot as usize).and_then(Option::take);
        if r.is_some() {
            self.live_bits[slot as usize >> 6] &= !(1 << (slot & 63));
            self.live -= 1;
        }
        r
    }

    /// Iterates live `(slot, value)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (Slot, &T)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|v| (i as Slot, v)))
    }

    /// Live value count.
    pub fn live(&self) -> usize {
        self.live
    }

    /// Dead (tombstoned) slot count.
    pub fn dead(&self) -> usize {
        self.slots.len() - self.live
    }

    /// Total slots allocated (live + dead).
    pub fn capacity_slots(&self) -> usize {
        self.slots.len()
    }

    /// Rebuilds the slab with live heads and values only and returns the
    /// remap table: `remap[old_slot] = new_slot` (or [`Slot::MAX`] for dead
    /// slots). Callers must rewrite every structure holding slots.
    pub fn compact(&mut self) -> Vec<Slot> {
        let mut remap = vec![Slot::MAX; self.slots.len()];
        let mut new_slots = Vec::with_capacity(self.live);
        let mut new_heads = Vec::with_capacity(self.live);
        for (old, slot) in self.slots.drain(..).enumerate() {
            if let Some(value) = slot {
                remap[old] = new_slots.len() as Slot;
                new_slots.push(Some(value));
                new_heads.push(self.heads[old]);
            }
        }
        self.slots = new_slots;
        self.heads = new_heads;
        self.live_bits.clear();
        self.live_bits
            .resize(self.slots.len().div_ceil(64), u64::MAX);
        if let Some(last) = self.live_bits.last_mut() {
            let tail = self.slots.len() & 63;
            if tail != 0 {
                *last = (1u64 << tail) - 1;
            }
        }
        remap
    }
}

/// Per-slot metadata of a stored record: identity, arrival timestamp, and
/// its token range in the store's arena. One 24-byte row, so a candidate
/// evaluation (length filter → token fetch → id fetch) touches a single
/// cache line instead of three parallel columns.
#[derive(Debug, Clone, Copy)]
struct RecMeta {
    id: RecordId,
    stamp: u64,
    tok_start: u32,
    tok_len: u32,
}

/// The flat record slab used by the per-record joiners.
///
/// Token sets are copied into one shared arena on insert (no per-record
/// allocation, no `Arc` traffic on the hot path); identity, timestamp and
/// the arena range live in one row per slot; liveness is a bitmap. Dead
/// token ranges linger in the arena until [`compact`](Self::compact)
/// rebuilds it, so arena size stays proportional to the live window under
/// the same [`should_compact`] policy as the index.
#[derive(Debug, Default)]
pub struct RecordStore {
    meta: Vec<RecMeta>,
    live_bits: Vec<u64>,
    live: usize,
    /// All live records' tokens, back to back in slot-insertion order.
    tokens: Vec<TokenId>,
}

impl RecordStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Stores a record's identity, timestamp and tokens, returning its
    /// slot. Slots are not reused until [`compact`](Self::compact).
    pub fn insert(&mut self, record: &Record) -> Slot {
        let slot = self.meta.len() as Slot;
        self.meta.push(RecMeta {
            id: record.id(),
            stamp: record.timestamp(),
            tok_start: self.tokens.len() as u32,
            tok_len: record.len() as u32,
        });
        self.tokens.extend_from_slice(record.tokens());
        let word = slot as usize >> 6;
        if word >= self.live_bits.len() {
            self.live_bits.push(0);
        }
        self.live_bits[word] |= 1 << (slot & 63);
        self.live += 1;
        slot
    }

    /// Whether `slot` holds a live record — one bit test.
    #[inline]
    pub fn is_live(&self, slot: Slot) -> bool {
        self.live_bits
            .get(slot as usize >> 6)
            .is_some_and(|w| w >> (slot & 63) & 1 == 1)
    }

    /// The token set stored in `slot` (a contiguous arena slice).
    ///
    /// Valid for live slots; a dead slot's range still reads its old
    /// tokens until the next compaction, so callers must check liveness.
    #[inline]
    pub fn tokens(&self, slot: Slot) -> &[TokenId] {
        let m = self.meta[slot as usize];
        &self.tokens[m.tok_start as usize..m.tok_start as usize + m.tok_len as usize]
    }

    /// Hints the CPU to pull `slot`'s token run into cache. The candidate
    /// loops call this one candidate ahead so the token fetch overlaps the
    /// current candidate's verification instead of stalling the next one.
    #[inline]
    pub fn prefetch_tokens(&self, slot: Slot) {
        if let Some(m) = self.meta.get(slot as usize) {
            if let Some(first) = self.tokens.get(m.tok_start as usize) {
                prefetch(first);
            }
        }
    }

    /// Token-set size of the record in `slot`.
    #[inline]
    pub fn token_len(&self, slot: Slot) -> usize {
        self.meta[slot as usize].tok_len as usize
    }

    /// Identity of the record in `slot`.
    #[inline]
    pub fn id(&self, slot: Slot) -> RecordId {
        self.meta[slot as usize].id
    }

    /// Arrival timestamp of the record in `slot`.
    #[inline]
    pub fn timestamp(&self, slot: Slot) -> u64 {
        self.meta[slot as usize].stamp
    }

    /// Reconstructs the full record in `slot` (snapshot path; allocates).
    pub fn to_record(&self, slot: Slot) -> Record {
        debug_assert!(self.is_live(slot), "snapshotting a dead slot");
        Record::from_sorted(
            self.id(slot),
            self.timestamp(slot),
            self.tokens(slot).to_vec(),
        )
    }

    /// Tombstones `slot`. Returns whether it was live.
    pub fn remove(&mut self, slot: Slot) -> bool {
        if !self.is_live(slot) {
            return false;
        }
        self.live_bits[slot as usize >> 6] &= !(1 << (slot & 63));
        self.live -= 1;
        true
    }

    /// Live record count.
    pub fn live(&self) -> usize {
        self.live
    }

    /// Dead (tombstoned) slot count.
    pub fn dead(&self) -> usize {
        self.meta.len() - self.live
    }

    /// Total slots allocated (live + dead).
    pub fn capacity_slots(&self) -> usize {
        self.meta.len()
    }

    /// Token-arena length, including dead records' ranges (test/metrics
    /// hook for compaction accounting).
    pub fn token_arena_len(&self) -> usize {
        self.tokens.len()
    }

    /// Rebuilds columns and token arena with live records only and returns
    /// the remap table: `remap[old_slot] = new_slot` (or [`Slot::MAX`] for
    /// dead slots). Callers must rewrite every structure holding slots.
    pub fn compact(&mut self) -> Vec<Slot> {
        let old = self.meta.len();
        let mut remap = vec![Slot::MAX; old];
        let mut meta = Vec::with_capacity(self.live);
        let mut tokens = Vec::with_capacity(self.tokens.len());
        for slot in 0..old as Slot {
            if !self.is_live(slot) {
                continue;
            }
            remap[slot as usize] = meta.len() as Slot;
            let mut m = self.meta[slot as usize];
            let start = tokens.len() as u32;
            tokens.extend_from_slice(self.tokens(slot));
            m.tok_start = start;
            meta.push(m);
        }
        self.meta = meta;
        self.tokens = tokens;
        self.live_bits.clear();
        self.live_bits.resize(self.live.div_ceil(64), u64::MAX);
        if let Some(last) = self.live_bits.last_mut() {
            let tail = self.live & 63;
            if tail != 0 {
                *last = (1u64 << tail) - 1;
            }
        }
        remap
    }
}

/// One posting: which slot contains the record, and at which token position
/// the posted token sits (needed by the positional filter). A bundle posting
/// carries the token's position in the bundle's representative, or
/// [`Posting::NO_POS`] for a token the representative does not contain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Posting {
    /// Store slot of the indexed record (or bundle).
    pub slot: Slot,
    /// 0-based position of the token within the record.
    pub pos: u32,
}

impl Posting {
    /// `pos` of a posting whose token has no position: the bundle joiner
    /// posts a member's prefix token under the bundle even when the
    /// representative lacks it, so that the prefix filter stays complete.
    pub const NO_POS: u32 = u32::MAX;
}

/// Filler for arena holes; never visible through a list range.
const HOLE: Posting = Posting {
    slot: Slot::MAX,
    pos: u32::MAX,
};

/// Token ids below this resolve through the direct table (a plain array
/// index); larger ids spill to a hash map. 2^17 entries cap the table at
/// ~1.5 MiB while covering the realistic vocabularies whole.
const DIRECT_SPAN: usize = 1 << 17;

/// How many postings ahead [`InvertedIndex::scan_prune`] announces a slot:
/// one cache line of postings.
const SCAN_AHEAD: usize = 8;

/// Initial capacity of a fresh posting list; lists double (relocating to
/// the arena tail) when full.
const LIST_MIN_CAP: u32 = 2;

/// A posting list's range in the arena: `arena[start..start+len]` is the
/// list, `arena[start..start+cap]` is owned by it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct ListRef {
    start: u32,
    len: u32,
    cap: u32,
}

impl ListRef {
    #[inline]
    fn is_empty(self) -> bool {
        self.len == 0
    }
}

/// Inverted index: token → postings, arena-backed.
///
/// All posting lists live in one `Vec<Posting>` arena; per-token
/// `(start, len, cap)` ranges make each candidate scan one contiguous
/// sweep. A full list relocates to the arena tail with doubled capacity
/// (append-heavy streaming workloads touch each list many times, so
/// amortized-doubling beats exact-fit); the hole it leaves is garbage that
/// an automatic arena rebuild reclaims once it outweighs the live data.
#[derive(Debug, Default)]
pub struct InvertedIndex {
    /// Token id < [`DIRECT_SPAN`] → list range, by direct array index.
    direct: Vec<ListRef>,
    /// Spill map for out-of-span token ids.
    spill: FxHashMap<TokenId, ListRef>,
    arena: Vec<Posting>,
    /// Postings currently stored (see [`postings`](Self::postings)).
    live_postings: usize,
    /// Arena slots no longer owned by any list (relocation holes plus
    /// freed empty-list capacity).
    garbage: usize,
    /// Tokens with a non-empty posting list.
    token_lists: usize,
}

impl InvertedIndex {
    /// An empty index.
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    fn get_ref(&self, token: TokenId) -> ListRef {
        let t = token.0 as usize;
        if t < DIRECT_SPAN {
            self.direct.get(t).copied().unwrap_or_default()
        } else {
            self.spill.get(&token).copied().unwrap_or_default()
        }
    }

    #[inline]
    fn set_ref(&mut self, token: TokenId, lr: ListRef) {
        let t = token.0 as usize;
        if t < DIRECT_SPAN {
            if t >= self.direct.len() {
                // Jump straight to the full span: growing incrementally as
                // larger token ids arrive would re-zero and re-copy the
                // table O(log) times, which dominates the insert path.
                self.direct.resize(DIRECT_SPAN, ListRef::default());
            }
            self.direct[t] = lr;
        } else if lr.is_empty() {
            self.spill.remove(&token);
        } else {
            self.spill.insert(token, lr);
        }
    }

    /// Adds a posting.
    pub fn add(&mut self, token: TokenId, posting: Posting) {
        let mut lr = self.get_ref(token);
        if lr.len == lr.cap {
            // Full (or fresh): place the list at the arena tail with
            // doubled capacity; the old range becomes garbage.
            let new_cap = (lr.cap * 2).max(LIST_MIN_CAP);
            let new_start = self.arena.len() as u32;
            if lr.len > 0 {
                let s = lr.start as usize;
                self.arena.extend_from_within(s..s + lr.len as usize);
                self.garbage += lr.cap as usize;
            }
            self.arena.push(posting);
            self.arena
                .resize(new_start as usize + new_cap as usize, HOLE);
            if lr.len == 0 {
                self.token_lists += 1;
            }
            lr = ListRef {
                start: new_start,
                len: lr.len + 1,
                cap: new_cap,
            };
        } else {
            self.arena[(lr.start + lr.len) as usize] = posting;
            lr.len += 1;
        }
        self.set_ref(token, lr);
        self.live_postings += 1;
        self.maybe_rebuild();
    }

    /// Scans the posting list of `token`, pruning dead postings in place.
    /// `is_live` decides liveness by slot; `visit` sees each live posting,
    /// in original insertion order. `ahead` is handed the slot of the
    /// posting a cache line of postings further on, so a caller whose
    /// `visit` reads per-slot state can start that fetch early (pass
    /// `|_| {}` otherwise).
    pub fn scan_prune(
        &mut self,
        token: TokenId,
        ahead: impl Fn(Slot),
        mut is_live: impl FnMut(Slot) -> bool,
        mut visit: impl FnMut(Posting),
    ) {
        let mut lr = self.get_ref(token);
        if lr.is_empty() {
            return;
        }
        let start = lr.start as usize;
        let w = {
            let list = &mut self.arena[start..start + lr.len as usize];
            list.iter().take(SCAN_AHEAD).for_each(|p| ahead(p.slot));
            // Fast path: no dead posting yet — pure read sweep, no
            // write-back. Falls into the two-pointer compaction from the
            // first dead entry onward.
            let mut w = list.len();
            for (r, &p) in list.iter().enumerate() {
                if let Some(next) = list.get(r + SCAN_AHEAD) {
                    ahead(next.slot);
                }
                if is_live(p.slot) {
                    visit(p);
                } else {
                    w = r;
                    break;
                }
            }
            if w < list.len() {
                for r in w + 1..list.len() {
                    if let Some(next) = list.get(r + SCAN_AHEAD) {
                        ahead(next.slot);
                    }
                    let p = list[r];
                    if is_live(p.slot) {
                        visit(p);
                        list[w] = p;
                        w += 1;
                    }
                }
            }
            w
        };
        let removed = lr.len as usize - w;
        if removed > 0 {
            self.live_postings -= removed;
            lr.len = w as u32;
            if lr.is_empty() {
                self.garbage += lr.cap as usize;
                self.token_lists -= 1;
                lr = ListRef::default();
            }
            self.set_ref(token, lr);
        }
    }

    /// Number of postings currently stored in the index. Exact for what is
    /// *stored*: incremented per [`add`](Self::add), decremented as
    /// [`scan_prune`](Self::scan_prune) discards postings whose slot died.
    /// Because dead postings are pruned lazily, postings referencing
    /// already-evicted slots remain counted until a scan touches their
    /// list — so this is an upper bound on postings referencing live slots,
    /// and exact again after [`apply_remap`](Self::apply_remap) (which
    /// drops every dead posting).
    pub fn postings(&self) -> usize {
        self.live_postings
    }

    /// Number of distinct tokens with a non-empty posting list.
    pub fn tokens(&self) -> usize {
        self.token_lists
    }

    /// Arena length including holes (test/metrics hook for compaction
    /// accounting).
    pub fn arena_len(&self) -> usize {
        self.arena.len()
    }

    /// Arena slots currently lost to relocation holes and freed lists
    /// (test/metrics hook).
    pub fn garbage_len(&self) -> usize {
        self.garbage
    }

    /// Drops dead postings everywhere and rewrites slots through `remap`
    /// (from [`RecordStore::compact`]). Rebuilds the arena hole-free.
    pub fn apply_remap(&mut self, remap: &[Slot]) {
        let mut arena = Vec::with_capacity(self.live_postings);
        let mut live = 0usize;
        let mut token_lists = 0usize;
        let rewrite = |lr: ListRef, arena: &mut Vec<Posting>, old: &[Posting]| -> ListRef {
            let start = arena.len() as u32;
            for &p in &old[lr.start as usize..(lr.start + lr.len) as usize] {
                let new = remap[p.slot as usize];
                if new != Slot::MAX {
                    arena.push(Posting {
                        slot: new,
                        pos: p.pos,
                    });
                }
            }
            let len = arena.len() as u32 - start;
            ListRef {
                start,
                len,
                cap: len,
            }
        };
        for t in 0..self.direct.len() {
            let lr = self.direct[t];
            if lr.is_empty() {
                continue;
            }
            let new = rewrite(lr, &mut arena, &self.arena);
            live += new.len as usize;
            token_lists += usize::from(!new.is_empty());
            self.direct[t] = if new.is_empty() {
                ListRef::default()
            } else {
                new
            };
        }
        self.spill.retain(|_, lr| {
            let new = rewrite(*lr, &mut arena, &self.arena);
            live += new.len as usize;
            token_lists += usize::from(!new.is_empty());
            *lr = new;
            !new.is_empty()
        });
        self.arena = arena;
        self.live_postings = live;
        self.token_lists = token_lists;
        self.garbage = 0;
    }

    /// Rebuilds the arena hole-free once garbage outweighs live data.
    /// Identical list contents and order, exact-fit capacities.
    fn maybe_rebuild(&mut self) {
        if !should_compact(self.arena.len() - self.garbage, self.garbage) {
            return;
        }
        let mut arena = Vec::with_capacity(self.arena.len() - self.garbage);
        let shrink = |lr: ListRef, arena: &mut Vec<Posting>, old: &[Posting]| -> ListRef {
            let start = arena.len() as u32;
            arena.extend_from_slice(&old[lr.start as usize..(lr.start + lr.len) as usize]);
            ListRef {
                start,
                len: lr.len,
                cap: lr.len,
            }
        };
        for t in 0..self.direct.len() {
            let lr = self.direct[t];
            if !lr.is_empty() {
                self.direct[t] = shrink(lr, &mut arena, &self.arena);
            }
        }
        for lr in self.spill.values_mut() {
            *lr = shrink(*lr, &mut arena, &self.arena);
        }
        self.arena = arena;
        self.garbage = 0;
    }
}

/// Stamp-based "first visit this probe?" filter over slots — O(1) dedup
/// without clearing a set between probes.
#[derive(Debug, Default)]
pub struct SeenFilter {
    stamps: Vec<u32>,
    epoch: u32,
}

impl SeenFilter {
    /// An empty filter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Starts a new probe; all slots become unseen.
    pub fn next_epoch(&mut self) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Wrapped: old stamps could alias. Reset storage (rare: every
            // 2^32 probes).
            self.stamps.iter_mut().for_each(|s| *s = u32::MAX);
            self.epoch = 1;
        }
    }

    /// True exactly on the first visit of `slot` in the current epoch.
    #[inline]
    pub fn first_visit(&mut self, slot: Slot) -> bool {
        let idx = slot as usize;
        if idx >= self.stamps.len() {
            self.stamps.resize(idx + 1, self.epoch.wrapping_sub(1));
        }
        if self.stamps[idx] == self.epoch {
            false
        } else {
            self.stamps[idx] = self.epoch;
            true
        }
    }

    /// Clears the filter after a store compaction (slot meanings changed).
    pub fn reset(&mut self) {
        self.stamps.clear();
        self.epoch = 0;
    }
}

/// Slot → per-probe candidate accumulator, without hashing: a dense
/// `cands` vector plus a stamped per-slot index (the [`SeenFilter`]
/// trick), so the prefix-scan inner loop costs one stamp compare per
/// posting instead of a hash-map probe. `A` is whatever the joiner
/// accumulates per candidate while it scans (PPJoin: shared-token count
/// and last shared positions; bundle: the same against a representative).
#[derive(Debug)]
pub struct CandMap<A> {
    /// Per-slot epoch stamp; the `idx` entry is valid iff it matches.
    stamps: Vec<u32>,
    /// Per-slot index into `cands`, valid under the current stamp.
    idx: Vec<u32>,
    epoch: u32,
    /// This probe's candidates in first-visit order.
    cands: Vec<A>,
}

impl<A> Default for CandMap<A> {
    fn default() -> Self {
        Self {
            stamps: Vec::new(),
            idx: Vec::new(),
            epoch: 0,
            cands: Vec::new(),
        }
    }
}

impl<A> CandMap<A> {
    /// Starts a new probe; all slots become absent.
    pub fn next_probe(&mut self) {
        self.cands.clear();
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Wrapped: old stamps could alias (every 2^32 probes).
            self.stamps.iter_mut().for_each(|s| *s = u32::MAX);
            self.epoch = 1;
        }
    }

    /// The accumulator for `slot`, inserting `init()` on first visit.
    #[inline]
    pub fn entry(&mut self, slot: Slot, init: impl FnOnce() -> A) -> &mut A {
        let i = slot as usize;
        if i >= self.stamps.len() {
            self.stamps.resize(i + 1, self.epoch.wrapping_sub(1));
            self.idx.resize(i + 1, 0);
        }
        if self.stamps[i] != self.epoch {
            self.stamps[i] = self.epoch;
            self.idx[i] = self.cands.len() as u32;
            self.cands.push(init());
        }
        &mut self.cands[self.idx[i] as usize]
    }

    /// This probe's accumulators, in first-visit order.
    #[inline]
    pub fn cands(&self) -> &[A] {
        &self.cands
    }

    /// Clears the map after a store compaction (slot meanings changed).
    pub fn reset(&mut self) {
        self.stamps.clear();
        self.idx.clear();
        self.cands.clear();
        self.epoch = 0;
    }
}

/// When should an index structure compact? Once the dead fraction exceeds
/// half and enough garbage has accumulated to be worth the rebuild.
#[inline]
pub fn should_compact(live: usize, dead: usize) -> bool {
    dead > 1024 && dead > live
}

/// Drives a full compaction across the structures the per-record indexed
/// joiners share. Returns the remap so callers can rewrite any extra slot
/// holders; per-probe scratch keyed by slot ([`SeenFilter`], [`CandMap`])
/// is the caller's to `reset`.
pub fn compact_all(
    store: &mut RecordStore,
    index: &mut InvertedIndex,
    queue: &mut EvictionQueue<Slot>,
) -> Vec<Slot> {
    let remap = store.compact();
    index.apply_remap(&remap);
    queue_apply_remap(queue, &remap);
    remap
}

fn queue_apply_remap(queue: &mut EvictionQueue<Slot>, remap: &[Slot]) {
    // The eviction queue only contains live slots (eviction is the only
    // source of tombstones and removes the entry as it kills the slot), so
    // every remap lookup must succeed.
    queue.for_each_payload_mut(|slot| {
        let new = remap[*slot as usize];
        debug_assert_ne!(new, Slot::MAX, "eviction queue held a dead slot");
        *slot = new;
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: u64, toks: &[u32]) -> Record {
        Record::from_sorted(
            RecordId(id),
            id,
            toks.iter().copied().map(TokenId).collect(),
        )
    }

    #[test]
    fn store_insert_get_remove() {
        let mut s = RecordStore::new();
        let a = s.insert(&rec(1, &[1, 2]));
        let b = s.insert(&rec(2, &[3]));
        assert_eq!(s.live(), 2);
        assert_eq!(s.id(a), RecordId(1));
        assert_eq!(s.tokens(a), &[TokenId(1), TokenId(2)]);
        assert!(s.remove(a));
        assert!(!s.is_live(a));
        assert_eq!(s.live(), 1);
        assert_eq!(s.dead(), 1);
        assert!(s.is_live(b));
        // Double remove is a no-op.
        assert!(!s.remove(a));
        assert_eq!(s.live(), 1);
    }

    #[test]
    fn store_round_trips_records() {
        let mut s = RecordStore::new();
        let r = rec(7, &[3, 9, 12]);
        let slot = s.insert(&r);
        let back = s.to_record(slot);
        assert_eq!(back.id(), r.id());
        assert_eq!(back.timestamp(), r.timestamp());
        assert_eq!(back.tokens(), r.tokens());
    }

    #[test]
    fn store_compact_remaps_and_rebuilds_token_arena() {
        let mut s = RecordStore::new();
        let a = s.insert(&rec(1, &[1, 5]));
        let b = s.insert(&rec(2, &[2]));
        let c = s.insert(&rec(3, &[3, 4, 6]));
        s.remove(b);
        let before = s.token_arena_len();
        let remap = s.compact();
        assert_eq!(remap[a as usize], 0);
        assert_eq!(remap[b as usize], Slot::MAX);
        assert_eq!(remap[c as usize], 1);
        assert_eq!(s.id(0), RecordId(1));
        assert_eq!(s.tokens(0), &[TokenId(1), TokenId(5)]);
        assert_eq!(s.id(1), RecordId(3));
        assert_eq!(s.tokens(1), &[TokenId(3), TokenId(4), TokenId(6)]);
        assert_eq!(s.dead(), 0);
        assert_eq!(s.token_arena_len(), before - 1, "dead tokens reclaimed");
    }

    #[test]
    fn index_scan_prunes_dead() {
        let mut idx = InvertedIndex::new();
        let t = TokenId(7);
        idx.add(t, Posting { slot: 0, pos: 0 });
        idx.add(t, Posting { slot: 1, pos: 2 });
        idx.add(t, Posting { slot: 2, pos: 1 });
        let mut seen = Vec::new();
        idx.scan_prune(t, |_| {}, |slot| slot != 1, |p| seen.push(p.slot));
        assert_eq!(seen, vec![0, 2]);
        assert_eq!(idx.postings(), 2);
        // Second scan no longer sees slot 1.
        let mut seen2 = Vec::new();
        idx.scan_prune(t, |_| {}, |_| true, |p| seen2.push(p.slot));
        assert_eq!(seen2, vec![0, 2]);
    }

    #[test]
    fn index_scan_preserves_insertion_order_across_relocation() {
        let mut idx = InvertedIndex::new();
        let t = TokenId(3);
        // Force several capacity doublings, interleaved with another token
        // so the relocations actually move.
        for i in 0..20u32 {
            idx.add(t, Posting { slot: i, pos: i });
            idx.add(TokenId(9), Posting { slot: i, pos: 0 });
        }
        let mut order = Vec::new();
        idx.scan_prune(t, |_| {}, |_| true, |p| order.push(p.slot));
        assert_eq!(order, (0..20).collect::<Vec<_>>());
    }

    #[test]
    fn index_empty_list_removed() {
        let mut idx = InvertedIndex::new();
        idx.add(TokenId(1), Posting { slot: 0, pos: 0 });
        idx.scan_prune(TokenId(1), |_| {}, |_| false, |_| panic!("nothing live"));
        assert_eq!(idx.tokens(), 0);
        assert_eq!(idx.postings(), 0);
    }

    #[test]
    fn index_spill_tokens_work_like_direct_ones() {
        let big = TokenId(u32::MAX - 5); // far beyond the direct span
        let mut idx = InvertedIndex::new();
        idx.add(big, Posting { slot: 0, pos: 0 });
        idx.add(big, Posting { slot: 1, pos: 1 });
        assert_eq!(idx.tokens(), 1);
        let mut seen = Vec::new();
        idx.scan_prune(big, |_| {}, |slot| slot != 0, |p| seen.push(p.slot));
        assert_eq!(seen, vec![1]);
        idx.scan_prune(big, |_| {}, |_| false, |_| {});
        assert_eq!(idx.tokens(), 0);
        assert_eq!(idx.postings(), 0);
    }

    #[test]
    fn index_remap() {
        let mut idx = InvertedIndex::new();
        idx.add(TokenId(1), Posting { slot: 0, pos: 0 });
        idx.add(TokenId(1), Posting { slot: 1, pos: 0 });
        idx.add(TokenId(2), Posting { slot: 1, pos: 1 });
        // slot 0 dies, slot 1 becomes 0.
        idx.apply_remap(&[Slot::MAX, 0]);
        assert_eq!(idx.postings(), 2);
        assert_eq!(idx.garbage_len(), 0, "remap rebuilds hole-free");
        let mut seen = Vec::new();
        idx.scan_prune(TokenId(1), |_| {}, |_| true, |p| seen.push(p.slot));
        assert_eq!(seen, vec![0]);
    }

    /// Pins the `postings()` accounting the doc promises: exact for stored
    /// postings, an upper bound on live-slot postings until a scan prunes.
    #[test]
    fn postings_counter_is_stored_count_until_pruned() {
        let mut idx = InvertedIndex::new();
        idx.add(TokenId(1), Posting { slot: 0, pos: 0 });
        idx.add(TokenId(1), Posting { slot: 1, pos: 0 });
        idx.add(TokenId(2), Posting { slot: 1, pos: 1 });
        assert_eq!(idx.postings(), 3);
        // Slot 1 "dies", but no scan has touched token 2's list: the stale
        // posting stays counted (upper bound, not live count).
        idx.scan_prune(TokenId(1), |_| {}, |slot| slot != 1, |_| {});
        assert_eq!(idx.postings(), 2, "token 1 pruned, token 2 not yet");
        // The lazy part: token 2's list still stores its dead posting.
        let mut hits = 0;
        idx.scan_prune(TokenId(2), |_| {}, |slot| slot != 1, |_| hits += 1);
        assert_eq!(hits, 0);
        assert_eq!(idx.postings(), 1, "now exact again");
        assert_eq!(idx.tokens(), 1);
    }

    #[test]
    fn index_arena_rebuild_reclaims_garbage() {
        let mut idx = InvertedIndex::new();
        // Grow many single-token lists through repeated doubling to pile
        // up relocation garbage past the rebuild threshold.
        for t in 0..200u32 {
            for i in 0..32u32 {
                idx.add(TokenId(t), Posting { slot: i, pos: 0 });
            }
        }
        assert!(
            idx.garbage_len() < idx.arena_len() - idx.garbage_len() + 1025,
            "rebuild keeps garbage below the live size (+threshold): {} vs {}",
            idx.garbage_len(),
            idx.arena_len()
        );
        // Order survived the rebuilds.
        let mut order = Vec::new();
        idx.scan_prune(TokenId(0), |_| {}, |_| true, |p| order.push(p.slot));
        assert_eq!(order, (0..32).collect::<Vec<_>>());
        assert_eq!(idx.postings(), 200 * 32);
    }

    #[test]
    fn seen_filter_dedups_within_epoch() {
        let mut f = SeenFilter::new();
        f.next_epoch();
        assert!(f.first_visit(3));
        assert!(!f.first_visit(3));
        assert!(f.first_visit(0));
        f.next_epoch();
        assert!(f.first_visit(3));
    }

    #[test]
    fn seen_filter_grows() {
        let mut f = SeenFilter::new();
        f.next_epoch();
        assert!(f.first_visit(1000));
        assert!(!f.first_visit(1000));
    }

    #[test]
    fn cand_map_accumulates_per_slot_within_a_probe() {
        let mut m: CandMap<(Slot, u32)> = CandMap::default();
        m.next_probe();
        m.entry(7, || (7, 0)).1 += 1;
        m.entry(2, || (2, 0)).1 += 1;
        m.entry(7, || unreachable!("second visit")).1 += 1;
        assert_eq!(m.cands(), &[(7, 2), (2, 1)], "first-visit order");
        m.next_probe();
        assert!(m.cands().is_empty());
        assert_eq!(*m.entry(7, || (7, 0)), (7, 0), "absent again");
        m.reset();
        m.next_probe();
        assert_eq!(*m.entry(1000, || (1000, 9)), (1000, 9));
    }

    #[test]
    fn slot_store_liveness_bitmap_tracks_slots() {
        let mut s: SlotStore<u8, u32> = SlotStore::new();
        let a = s.insert(1, 10);
        let b = s.insert(2, 20);
        assert!(s.is_live(a) && s.is_live(b));
        assert!(!s.is_live(99));
        s.remove(a);
        assert!(!s.is_live(a));
        *s.get_mut(b).expect("live").0 += 5;
        let remap = s.compact();
        assert_eq!(remap[b as usize], 0);
        assert!(s.is_live(0));
        assert!(!s.is_live(1));
        // The head column moves with its value.
        assert_eq!((s.head(0), s.get(0)), (7, Some(&20)));
    }

    #[test]
    fn compact_all_coordinates() {
        let mut store = RecordStore::new();
        let mut index = InvertedIndex::new();
        let mut queue = EvictionQueue::new();
        let a = store.insert(&rec(1, &[1]));
        let b = store.insert(&rec(2, &[1]));
        index.add(TokenId(1), Posting { slot: a, pos: 0 });
        index.add(TokenId(1), Posting { slot: b, pos: 0 });
        queue.push(2, 2, b);
        store.remove(a); // evicted; note queue no longer holds it
        let remap = compact_all(&mut store, &mut index, &mut queue);
        assert_eq!(remap[b as usize], 0);
        assert_eq!(store.live(), 1);
        assert_eq!(index.postings(), 1);
        let mut slots = Vec::new();
        index.scan_prune(TokenId(1), |_| {}, |_| true, |p| slots.push(p.slot));
        assert_eq!(slots, vec![0]);
    }

    #[test]
    fn should_compact_thresholds() {
        assert!(!should_compact(10, 5));
        assert!(!should_compact(10, 1000)); // not enough absolute garbage
        assert!(should_compact(1000, 1500));
    }
}
