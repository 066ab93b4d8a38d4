//! Storage machinery shared by the indexed joiners: a flat columnar record
//! store over a token arena, an arena-backed inverted prefix index, a slot
//! slab for the bundle joiner, a stamp-based candidate deduplication
//! filter, and the per-probe candidate accumulator the positional joiners
//! share.
//!
//! The hot structures are **flat**: record token sets live in one
//! `Vec<TokenId>` arena (so verification reads are contiguous), posting
//! lists live in one `Vec<Posting>` arena addressed by per-token
//! `(start, len, cap)` ranges (so a candidate scan is a single contiguous
//! sweep, with the token → range step a direct array index for ordinary
//! token ids rather than a hash probe).
//!
//! The index holds one invariant: **a posting exists exactly while its slot
//! is live.** A joiner removes a slot's postings
//! ([`InvertedIndex::remove`]) before it frees the slot, so a scan never
//! meets a dead slot and [`InvertedIndex::postings`] is an exact count.
//! Freed memory is reused, never compacted: both arenas are carved into
//! power-of-two blocks with a free list per size class, and both stores
//! hand freed slots to the next insert. Nothing is ever renumbered, so no
//! structure holding a slot needs rewriting.
//!
//! A probe's scan is a chain of dependent cache misses: a token's list
//! reference in the direct table, then its first postings, then each
//! candidate's per-slot state. [`InvertedIndex::scan_prefix`] pipelines
//! that chain across the prefix: while it scans token `i` it has already
//! asked for token `i + 2`'s reference and token `i + 1`'s first postings,
//! and within a list [`InvertedIndex::scan`] announces each posting's slot
//! a cache line of postings ahead. The joiners' verification loops likewise
//! fetch the next survivor's record while the current one merges. Two chains
//! start outside any scan, and are fetched ahead in the same two stages
//! (`InvertedIndex::prefetch_lists`): removing an expired record's
//! postings, which the joiners look ahead for along the eviction queue
//! after each eviction, and the first lists of a probe still queued in the
//! engine batch, which the drivers announce a few messages ahead. Every
//! such step is a cache hint or a plain read, so what a scan visits, and in
//! which order, does not depend on it.

use ssj_text::{FxHashMap, Record, RecordId, TokenId};

/// Slot handle into a [`RecordStore`] or [`SlotStore`].
pub type Slot = u32;

/// Hints the CPU to pull `target`'s cache line in ahead of a read.
#[inline]
pub(crate) fn prefetch<T>(target: &T) {
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

/// Tokens per cache line.
const LINE_TOKENS: usize = 16;

/// Cache lines of a token run that [`prefetch_tokens`] pulls in: 64 tokens,
/// what a verification merge typically reads before it terminates.
const TOKEN_LINES: usize = 4;

/// Hints the CPU to pull in the first four cache lines (64 tokens) of
/// `tokens`, one candidate ahead of the merge that reads them.
#[inline]
pub(crate) fn prefetch_tokens(tokens: &[TokenId]) {
    for t in tokens.iter().step_by(LINE_TOKENS).take(TOKEN_LINES) {
        prefetch(t);
    }
}

/// The size class of a block holding `len` elements: `1 << class ≥ len`.
#[inline]
fn size_class(len: u32) -> u32 {
    len.max(1).next_power_of_two().trailing_zeros()
}

/// One arena carved into power-of-two blocks, with a free list per size
/// class: a freed block goes to the next request of its class, so the
/// arena grows only when every block of that class is in use.
#[derive(Debug)]
struct Blocks<T> {
    arena: Vec<T>,
    /// `free[class]`: starts of the free blocks of `1 << class` elements.
    free: [Vec<u32>; 32],
}

impl<T> Default for Blocks<T> {
    fn default() -> Self {
        Self {
            arena: Vec::new(),
            free: Default::default(),
        }
    }
}

impl<T: Copy> Blocks<T> {
    /// The start of a block of `1 << class` elements; a fresh one is filled
    /// with `fill`, a reused one keeps what its last owner left.
    fn alloc(&mut self, class: u32, fill: T) -> u32 {
        if let Some(start) = self.free[class as usize].pop() {
            return start;
        }
        let start = self.arena.len();
        self.arena.resize(start + (1 << class), fill);
        start as u32
    }

    /// Returns the block at `start` to its class's free list.
    fn free(&mut self, start: u32, class: u32) {
        self.free[class as usize].push(start);
    }
}

/// A slab of values addressed by [`Slot`], with one small `Copy` **head**
/// per slot in a dense column of its own. Used by the bundle joiner, whose
/// stored values are structured (not flat records): what a candidate's
/// first visit reads lives in the head column — a few words per slot,
/// packed — so a prefix scan touches the ~100-byte value only for the
/// candidates it goes on to verify. Head and value are inserted and freed
/// together; a field lives in exactly one of them. A freed slot is the next
/// insert's.
#[derive(Debug)]
pub struct SlotStore<H, T> {
    slots: Vec<Option<T>>,
    heads: Vec<H>,
    /// Freed slots, the last freed reused first.
    free: Vec<Slot>,
}

impl<H, T> Default for SlotStore<H, T> {
    fn default() -> Self {
        Self {
            slots: Vec::new(),
            heads: Vec::new(),
            free: Vec::new(),
        }
    }
}

impl<H: Copy, T> SlotStore<H, T> {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Stores a head and its value in a freed slot, or a new one, and
    /// returns it.
    pub fn insert(&mut self, head: H, value: T) -> Slot {
        if let Some(slot) = self.free.pop() {
            self.slots[slot as usize] = Some(value);
            self.heads[slot as usize] = head;
            return slot;
        }
        self.slots.push(Some(value));
        self.heads.push(head);
        (self.slots.len() - 1) as Slot
    }

    /// The head of `slot`.
    ///
    /// Valid for live slots; a freed slot reads its last head until it is
    /// reused.
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

    /// The value in `slot`, if live.
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

    /// Mutable access to the head and value in `slot`, if live.
    #[inline]
    pub fn get_mut(&mut self, slot: Slot) -> Option<(&mut H, &mut T)> {
        let value = self.slots.get_mut(slot as usize)?.as_mut()?;
        Some((&mut self.heads[slot as usize], value))
    }

    /// Frees `slot`, returning its value.
    pub fn remove(&mut self, slot: Slot) -> Option<T> {
        let r = self.slots.get_mut(slot as usize).and_then(Option::take);
        if r.is_some() {
            self.free.push(slot);
        }
        r
    }

    /// Live value count.
    pub fn live(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// Slots allocated, live or free: the most ever live at once.
    pub fn capacity_slots(&self) -> usize {
        self.slots.len()
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
/// allocation, no `Arc` traffic on the hot path), each into a power-of-two
/// block that [`remove`](Self::remove) returns for reuse; identity,
/// timestamp and the arena range live in one row per slot, and a freed row
/// is the next insert's.
#[derive(Debug, Default)]
pub struct RecordStore {
    meta: Vec<RecMeta>,
    /// Freed slots, the last freed reused first.
    free: Vec<Slot>,
    tokens: Blocks<TokenId>,
}

impl RecordStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Stores a record's identity, timestamp and tokens in a freed slot, or
    /// a new one, and returns it.
    pub fn insert(&mut self, record: &Record) -> Slot {
        let len = record.len() as u32;
        let start = self.tokens.alloc(size_class(len), TokenId(0));
        self.tokens.arena[start as usize..(start + len) as usize].copy_from_slice(record.tokens());
        let m = RecMeta {
            id: record.id(),
            stamp: record.timestamp(),
            tok_start: start,
            tok_len: len,
        };
        if let Some(slot) = self.free.pop() {
            self.meta[slot as usize] = m;
            return slot;
        }
        self.meta.push(m);
        (self.meta.len() - 1) as Slot
    }

    /// The token set stored in `slot` (a contiguous arena slice).
    ///
    /// Valid for live slots only: a freed slot's range may already hold
    /// another record's tokens.
    #[inline]
    pub fn tokens(&self, slot: Slot) -> &[TokenId] {
        let m = self.meta[slot as usize];
        &self.tokens.arena[m.tok_start as usize..m.tok_start as usize + m.tok_len as usize]
    }

    /// Hints the CPU to pull the first four cache lines (64 tokens) of
    /// `slot`'s token run into cache. The candidate loops call this one
    /// candidate ahead so the token fetch overlaps the current candidate's
    /// verification instead of stalling the next one.
    #[inline]
    pub fn prefetch_tokens(&self, slot: Slot) {
        if let Some(m) = self.meta.get(slot as usize) {
            let start = m.tok_start as usize;
            if let Some(run) = self.tokens.arena.get(start..start + m.tok_len as usize) {
                prefetch_tokens(run);
            }
        }
    }

    /// Hints the CPU to pull `slot`'s metadata row into cache.
    #[inline]
    pub(crate) fn prefetch_row(&self, slot: Slot) {
        if let Some(m) = self.meta.get(slot as usize) {
            prefetch(m);
        }
    }

    /// Hints the CPU to pull the first cache line of `slot`'s token run
    /// into cache: all an eviction reads when the record's posted prefix
    /// fits in it. Reads the row an earlier
    /// [`prefetch_row`](Self::prefetch_row) fetched.
    #[inline]
    pub(crate) fn prefetch_first_tokens(&self, slot: Slot) {
        if let Some(m) = self.meta.get(slot as usize) {
            if let Some(t) = self.tokens.arena.get(m.tok_start as usize) {
                prefetch(t);
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

    /// Frees live `slot` and its token block for reuse. Its postings must
    /// already be gone from every index.
    pub fn remove(&mut self, slot: Slot) {
        let m = self.meta[slot as usize];
        self.tokens.free(m.tok_start, size_class(m.tok_len));
        self.free.push(slot);
    }

    /// Live record count.
    pub fn live(&self) -> usize {
        self.meta.len() - self.free.len()
    }

    /// Slots allocated, live or free: the most ever live at once.
    pub fn capacity_slots(&self) -> usize {
        self.meta.len()
    }

    /// Token-arena length, free blocks included (test/metrics hook).
    pub fn token_arena_len(&self) -> usize {
        self.tokens.arena.len()
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

/// Filler for a fresh block's unused tail; never visible through a list
/// range.
const HOLE: Posting = Posting {
    slot: Slot::MAX,
    pos: u32::MAX,
};

/// Token ids below this resolve through the direct table (a plain array
/// index); larger ids spill to a hash map. 2^17 entries cap the table at
/// ~1.5 MiB while covering the realistic vocabularies whole.
const DIRECT_SPAN: usize = 1 << 17;

/// How many postings ahead [`InvertedIndex::scan`] announces a slot: one
/// cache line of postings.
const SCAN_AHEAD: usize = 8;

/// How many prefix tokens ahead of the one it scans
/// [`InvertedIndex::scan_prefix`] fetches a token's list reference, and
/// then — reading that reference a token later — its first postings. The
/// slots those postings name are left to [`SCAN_AHEAD`], which announces
/// the first of them as the token's scan starts. The two lookaheads of
/// [`InvertedIndex::prefetch_lists`] use the same distances, counted in
/// engine messages or in evictions.
pub(crate) const REF_AHEAD: usize = 2;
pub(crate) const POSTINGS_AHEAD: usize = 1;

/// Evictions ahead at which the eviction lookahead fetches an entry's
/// store row, then the first line of its tokens; its posted tokens' lists
/// follow at [`REF_AHEAD`] and [`POSTINGS_AHEAD`].
pub(crate) const ROW_AHEAD: usize = 8;
pub(crate) const TOKENS_AHEAD: usize = 4;

/// Posted tokens per evicted entry whose lists the eviction lookahead
/// fetches: a long record's prefix (enron's run to ~40 tokens at τ = 0.6)
/// would otherwise flood the cache with lists the next probes need less.
pub(crate) const EVICT_HINT_TOKENS: usize = 4;

/// Engine messages ahead at which the batch lookahead fetches the first
/// line of a probe's tokens, which the list steps at [`REF_AHEAD`] and
/// [`POSTINGS_AHEAD`] then read.
pub(crate) const RECORD_AHEAD: usize = REF_AHEAD + 1;

/// Probe-prefix tokens whose lists the batch lookahead fetches: the ones
/// [`InvertedIndex::scan_prefix`]'s own lookahead reaches too late for.
pub(crate) const PROBE_HINT_TOKENS: usize = REF_AHEAD + 1;

/// Capacity of a fresh posting list; a full list moves to a block twice
/// its size.
const LIST_MIN_CAP: u32 = 2;

/// A posting list's range in the arena: `arena[start..start+len]` is the
/// list, `arena[start..start+cap]` is its block (`cap` a power of two, 0
/// for a token without a list).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct ListRef {
    start: u32,
    len: u32,
    cap: u32,
}

/// Inverted index: token → postings, arena-backed.
///
/// Every posting list owns one power-of-two block of a single
/// `Vec<Posting>` arena, so each candidate scan is one contiguous sweep. A
/// full list moves to a block twice its size (append-heavy streaming
/// workloads touch each list many times, so amortized doubling beats
/// exact fit) and a list a quarter full to one half its size, so a block
/// never holds less than a quarter of its capacity; the block a list
/// leaves, like the block of a list that empties, goes to the next list
/// that needs one of that size.
#[derive(Debug, Default)]
pub struct InvertedIndex {
    /// Token id < [`DIRECT_SPAN`] → list range, by direct array index.
    direct: Vec<ListRef>,
    /// Spill map for out-of-span token ids.
    spill: FxHashMap<TokenId, ListRef>,
    blocks: Blocks<Posting>,
    /// Postings stored (see [`postings`](Self::postings)).
    postings: usize,
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
                // The table spans the largest id so far, inside one
                // allocation of the whole span reserved on the first add:
                // a fresh index (a respawned joiner's) touches only the
                // pages its ids use, and growing never copies or frees a
                // smaller table.
                self.direct.reserve_exact(DIRECT_SPAN - self.direct.len());
                self.direct.resize(t + 1, ListRef::default());
            }
            self.direct[t] = lr;
        } else if lr.len == 0 {
            self.spill.remove(&token);
        } else {
            self.spill.insert(token, lr);
        }
    }

    /// Appends a posting to `token`'s list.
    pub fn add(&mut self, token: TokenId, posting: Posting) {
        let mut lr = self.get_ref(token);
        if lr.len == lr.cap {
            // Full (or absent): move to a block twice the size.
            self.token_lists += usize::from(lr.cap == 0);
            lr = self.relocate(lr, (lr.cap * 2).max(LIST_MIN_CAP));
        }
        self.blocks.arena[(lr.start + lr.len) as usize] = posting;
        lr.len += 1;
        self.set_ref(token, lr);
        self.postings += 1;
    }

    /// Removes `slot`'s posting from `token`'s list, keeping the others in
    /// insertion order. The list is searched from the front, where an
    /// evicted slot's posting almost always sits: eviction runs in arrival
    /// order. Moves the list to a block half the size once it is a quarter
    /// full, and frees its block once it is empty.
    ///
    /// # Panics
    /// If `token` has no posting for `slot`.
    pub fn remove(&mut self, token: TokenId, slot: Slot) {
        let mut lr = self.get_ref(token);
        let start = lr.start as usize;
        let list = &mut self.blocks.arena[start..start + lr.len as usize];
        let at = list
            .iter()
            .position(|p| p.slot == slot)
            .expect("removed posting is indexed");
        list.copy_within(at + 1.., at);
        lr.len -= 1;
        self.postings -= 1;
        if lr.len == 0 {
            self.blocks.free(lr.start, size_class(lr.cap));
            self.token_lists -= 1;
            lr = ListRef::default();
        } else if lr.cap > LIST_MIN_CAP && lr.len <= lr.cap / 4 {
            lr = self.relocate(lr, lr.cap / 2);
        }
        self.set_ref(token, lr);
    }

    /// Moves `lr`'s postings into a block of `cap`, freeing its old block.
    fn relocate(&mut self, lr: ListRef, cap: u32) -> ListRef {
        let start = self.blocks.alloc(size_class(cap), HOLE);
        if lr.cap > 0 {
            let old = lr.start as usize;
            self.blocks
                .arena
                .copy_within(old..old + lr.len as usize, start as usize);
            self.blocks.free(lr.start, size_class(lr.cap));
        }
        ListRef {
            start,
            len: lr.len,
            cap,
        }
    }

    /// Visits the posting list of `token` in insertion order. `ahead` is
    /// handed the slot of the posting a cache line of postings further on,
    /// so a caller whose `visit` reads per-slot state can start that fetch
    /// early (pass `|_| {}` otherwise).
    pub fn scan(&self, token: TokenId, ahead: impl Fn(Slot), mut visit: impl FnMut(Posting)) {
        let lr = self.get_ref(token);
        let start = lr.start as usize;
        let list = &self.blocks.arena[start..start + lr.len as usize];
        list.iter().take(SCAN_AHEAD).for_each(|p| ahead(p.slot));
        for (r, &p) in list.iter().enumerate() {
            if let Some(next) = list.get(r + SCAN_AHEAD) {
                ahead(next.slot);
            }
            visit(p);
        }
    }

    /// Hints the CPU to pull `token`'s list reference into cache, ahead of
    /// a [`prefetch_postings`](Self::prefetch_postings) or a scan of it.
    /// Spilled tokens are left alone: their reference is a hash probe away.
    #[inline]
    fn prefetch_ref(&self, token: TokenId) {
        if let Some(lr) = self.direct.get(token.0 as usize) {
            prefetch(lr);
        }
    }

    /// Reads `token`'s list reference — cached by an earlier
    /// [`prefetch_ref`](Self::prefetch_ref) — and hints the CPU to pull the
    /// list's first postings in. Spilled tokens are left alone.
    #[inline]
    fn prefetch_postings(&self, token: TokenId) {
        if let Some(lr) = self.direct.get(token.0 as usize) {
            if let Some(first) = self.blocks.arena.get(lr.start as usize) {
                prefetch(first);
            }
        }
    }

    /// Hints the CPU at the first misses of a scan of, or a posting removal
    /// from, the lists of `tokens` that lies `distance` steps ahead: at
    /// [`REF_AHEAD`] their list references, at [`POSTINGS_AHEAD`] — reading
    /// the references the earlier step fetched — their first postings, at
    /// any other distance nothing.
    #[inline]
    pub(crate) fn prefetch_lists<'t>(
        &self,
        tokens: impl IntoIterator<Item = &'t TokenId>,
        distance: usize,
    ) {
        match distance {
            REF_AHEAD => tokens.into_iter().for_each(|&t| self.prefetch_ref(t)),
            POSTINGS_AHEAD => tokens.into_iter().for_each(|&t| self.prefetch_postings(t)),
            _ => {}
        }
    }

    /// [`scan`](Self::scan) of each token of `prefix` in turn, pipelined:
    /// before scanning token `i` it asks for token `i + 2`'s list reference
    /// and token `i + 1`'s first postings, so those misses overlap token
    /// `i`'s scan instead of stalling the next one. `ahead` is `scan`'s;
    /// `visit` sees each posting with the prefix position of its token.
    /// What it sees, and in which order, is exactly what scanning the
    /// tokens one by one would show.
    pub fn scan_prefix(
        &self,
        prefix: &[TokenId],
        ahead: impl Fn(Slot),
        mut visit: impl FnMut(usize, Posting),
    ) {
        for (i, &token) in prefix.iter().enumerate() {
            if let Some(&t) = prefix.get(i + REF_AHEAD) {
                self.prefetch_ref(t);
            }
            if let Some(&t) = prefix.get(i + POSTINGS_AHEAD) {
                self.prefetch_postings(t);
            }
            self.scan(token, &ahead, |p| visit(i, p));
        }
    }

    /// Number of postings in the index: exact, because every posting of a
    /// slot is [`remove`](Self::remove)d before the slot is freed.
    pub fn postings(&self) -> usize {
        self.postings
    }

    /// Number of distinct tokens with a non-empty posting list.
    pub fn tokens(&self) -> usize {
        self.token_lists
    }

    /// Arena length, free blocks included (test/metrics hook).
    pub fn arena_len(&self) -> usize {
        self.blocks.arena.len()
    }
}

/// Stamp-based "first visit this probe?" filter over slots — O(1) dedup
/// without clearing a set between probes.
///
/// Epochs run from 1 to `u32::MAX`; stamp 0 is never a live epoch, so it
/// marks a slot unvisited — both a fresh one and, after the epoch counter
/// wraps, every old one.
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
            self.stamps.fill(0);
            self.epoch = 1;
        }
    }

    /// True exactly on the first visit of `slot` in the current epoch.
    #[inline]
    pub fn first_visit(&mut self, slot: Slot) -> bool {
        debug_assert_ne!(self.epoch, 0, "first_visit before next_epoch");
        let idx = slot as usize;
        if idx >= self.stamps.len() {
            self.stamps.resize(idx + 1, 0);
        }
        if self.stamps[idx] == self.epoch {
            false
        } else {
            self.stamps[idx] = self.epoch;
            true
        }
    }
}

/// Slot → per-probe candidate accumulator, without hashing: a dense
/// `cands` vector plus a stamped per-slot index (the [`SeenFilter`]
/// trick, with its epoch convention), so the prefix-scan inner loop costs
/// one stamp compare per posting instead of a hash-map probe. `A` is
/// whatever the joiner accumulates per candidate while it scans (PPJoin:
/// shared-token count and last shared positions; bundle: the same against
/// a representative).
#[derive(Debug)]
pub struct CandMap<A> {
    /// Per-slot `(epoch stamp, index into cands)`, side by side so a hit
    /// costs one random access; the index is valid iff the stamp matches.
    slots: Vec<(u32, u32)>,
    epoch: u32,
    /// This probe's candidates in first-visit order.
    cands: Vec<A>,
}

impl<A> Default for CandMap<A> {
    fn default() -> Self {
        Self {
            slots: Vec::new(),
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
            self.slots.fill((0, 0));
            self.epoch = 1;
        }
    }

    /// The accumulator for `slot`, inserting `init()` on first visit.
    #[inline]
    pub fn entry(&mut self, slot: Slot, init: impl FnOnce() -> A) -> &mut A {
        debug_assert_ne!(self.epoch, 0, "entry before next_probe");
        let i = slot as usize;
        if i >= self.slots.len() {
            self.slots.resize(i + 1, (0, 0));
        }
        let (stamp, idx) = &mut self.slots[i];
        if *stamp != self.epoch {
            *stamp = self.epoch;
            *idx = self.cands.len() as u32;
            self.cands.push(init());
        }
        &mut self.cands[*idx as usize]
    }

    /// This probe's accumulators, in first-visit order.
    #[inline]
    pub fn cands(&self) -> &[A] {
        &self.cands
    }
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

    fn list(idx: &InvertedIndex, token: u32) -> Vec<Posting> {
        let mut out = Vec::new();
        idx.scan(TokenId(token), |_| {}, |p| out.push(p));
        out
    }

    fn p(slot: Slot, pos: u32) -> Posting {
        Posting { slot, pos }
    }

    #[test]
    fn store_reuses_freed_slots_and_token_blocks() {
        let mut s = RecordStore::new();
        let a = s.insert(&rec(1, &[1, 2]));
        let b = s.insert(&rec(2, &[3]));
        assert_eq!(s.live(), 2);
        assert_eq!(s.id(a), RecordId(1));
        assert_eq!(s.tokens(a), &[TokenId(1), TokenId(2)]);
        let arena = s.token_arena_len();
        s.remove(a);
        assert_eq!(s.live(), 1);
        assert_eq!(s.tokens(b), &[TokenId(3)]);
        // The next insert takes the freed slot and, at the same size class,
        // the freed token block.
        let c = s.insert(&rec(3, &[4, 5]));
        assert_eq!(c, a);
        assert_eq!((s.live(), s.capacity_slots()), (2, 2));
        assert_eq!(s.token_arena_len(), arena);
        assert_eq!(
            (s.id(c), s.tokens(c)),
            (RecordId(3), &[TokenId(4), TokenId(5)][..])
        );
    }

    #[test]
    fn store_round_trips_records() {
        let mut s = RecordStore::new();
        let r = rec(7, &[3, 9, 12]);
        let slot = s.insert(&r);
        assert_eq!(s.id(slot), r.id());
        assert_eq!(s.timestamp(slot), r.timestamp());
        assert_eq!(s.tokens(slot), r.tokens());
    }

    #[test]
    fn index_remove_keeps_insertion_order() {
        let mut idx = InvertedIndex::new();
        for slot in 0..5 {
            idx.add(TokenId(7), p(slot, slot));
        }
        idx.remove(TokenId(7), 0);
        idx.remove(TokenId(7), 3);
        assert_eq!(list(&idx, 7), [p(1, 1), p(2, 2), p(4, 4)]);
        assert_eq!((idx.postings(), idx.tokens()), (3, 1));
        idx.add(TokenId(7), p(0, 9));
        assert_eq!(list(&idx, 7), [p(1, 1), p(2, 2), p(4, 4), p(0, 9)]);
    }

    #[test]
    #[should_panic(expected = "removed posting is indexed")]
    fn index_remove_of_an_absent_posting_panics() {
        let mut idx = InvertedIndex::new();
        idx.add(TokenId(1), p(0, 0));
        idx.remove(TokenId(1), 1);
    }

    #[test]
    fn index_scan_preserves_insertion_order_across_relocation() {
        let mut idx = InvertedIndex::new();
        // Force several capacity doublings, interleaved with another token
        // so the relocations actually move.
        for i in 0..20u32 {
            idx.add(TokenId(3), p(i, i));
            idx.add(TokenId(9), p(i, 0));
        }
        let order: Vec<Slot> = list(&idx, 3).iter().map(|p| p.slot).collect();
        assert_eq!(order, (0..20).collect::<Vec<_>>());
    }

    #[test]
    fn index_emptied_list_is_gone_and_its_block_reused() {
        let mut idx = InvertedIndex::new();
        idx.add(TokenId(1), p(0, 0));
        let arena = idx.arena_len();
        idx.remove(TokenId(1), 0);
        assert_eq!((idx.tokens(), idx.postings()), (0, 0));
        assert!(list(&idx, 1).is_empty());
        idx.add(TokenId(2), p(1, 0));
        assert_eq!(idx.arena_len(), arena, "token 2 took token 1's block");
        assert_eq!(list(&idx, 2), [p(1, 0)]);
    }

    #[test]
    fn index_spill_tokens_work_like_direct_ones() {
        let big = u32::MAX - 5; // far beyond the direct span
        let mut idx = InvertedIndex::new();
        idx.add(TokenId(big), p(0, 0));
        idx.add(TokenId(big), p(1, 1));
        assert_eq!(idx.tokens(), 1);
        idx.remove(TokenId(big), 0);
        assert_eq!(list(&idx, big), [p(1, 1)]);
        idx.remove(TokenId(big), 1);
        assert_eq!((idx.tokens(), idx.postings()), (0, 0));
    }

    /// Lists that grow, empty and grow again recycle their blocks: a second
    /// round of the same shape does not lengthen the arena.
    #[test]
    fn index_recycles_relocated_and_emptied_blocks() {
        let mut idx = InvertedIndex::new();
        let fill = |idx: &mut InvertedIndex, base: u32| {
            for t in base..base + 200 {
                for slot in 0..32 {
                    idx.add(TokenId(t), p(slot, 0));
                }
            }
        };
        fill(&mut idx, 0);
        let arena = idx.arena_len();
        assert_eq!(idx.postings(), 200 * 32);
        for t in 0..200 {
            for slot in 0..32 {
                idx.remove(TokenId(t), slot);
            }
        }
        assert_eq!((idx.postings(), idx.tokens()), (0, 0));
        fill(&mut idx, 1_000);
        assert_eq!(idx.arena_len(), arena);
        let order: Vec<Slot> = list(&idx, 1_000).iter().map(|p| p.slot).collect();
        assert_eq!(order, (0..32).collect::<Vec<_>>());
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

    /// After the epoch counter wraps, a slot stamped before the wrap is
    /// unvisited in every later epoch — up to and including `u32::MAX`.
    #[test]
    fn seen_filter_forgets_pre_wrap_stamps_for_a_whole_cycle() {
        let mut f = SeenFilter::new();
        f.next_epoch();
        assert!(f.first_visit(5));
        f.epoch = u32::MAX;
        f.next_epoch();
        assert_eq!(f.epoch, 1, "wrapped");
        f.epoch = u32::MAX - 1;
        f.next_epoch();
        assert!(f.first_visit(5), "stamped before the wrap, unseen since");
        assert!(!f.first_visit(5));
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
        assert_eq!(*m.entry(1000, || (1000, 9)), (1000, 9));
    }

    /// After the epoch counter wraps, a slot stamped before the wrap is
    /// absent in every later probe — up to and including epoch `u32::MAX`,
    /// where a stale index would name an accumulator that does not exist.
    #[test]
    fn cand_map_forgets_pre_wrap_stamps_for_a_whole_cycle() {
        let mut m: CandMap<u32> = CandMap::default();
        m.next_probe();
        *m.entry(5, || 0) += 1;
        m.epoch = u32::MAX;
        m.next_probe();
        assert_eq!(m.epoch, 1, "wrapped");
        m.epoch = u32::MAX - 1;
        m.next_probe();
        assert_eq!(*m.entry(5, || 7), 7, "stamped before the wrap");
        assert_eq!(m.cands(), &[7]);
    }

    /// The pipelined prefix scan visits exactly what scanning its tokens
    /// one by one visits, in the same order.
    #[test]
    fn scan_prefix_visits_what_a_token_by_token_scan_visits() {
        let mut idx = InvertedIndex::new();
        for slot in 0..40u32 {
            for t in [slot % 7, 7 + slot % 3, 10 + slot % 11, 200_000 + slot % 2] {
                idx.add(TokenId(t), p(slot, t % 5));
            }
        }
        for slot in (1..40).step_by(4) {
            for t in [slot % 7, 7 + slot % 3, 10 + slot % 11, 200_000 + slot % 2] {
                idx.remove(TokenId(t), slot);
            }
        }
        let prefix: Vec<TokenId> = [0, 3, 7, 9, 12, 15, 20, 200_001]
            .into_iter()
            .map(TokenId)
            .collect();
        let mut seen = Vec::new();
        idx.scan_prefix(&prefix, |_| {}, |i, p| seen.push((i, p)));
        let mut expect = Vec::new();
        for (i, &t) in prefix.iter().enumerate() {
            idx.scan(t, |_| {}, |p| expect.push((i, p)));
        }
        assert!(expect.len() > 20);
        assert!(expect.iter().all(|(_, p)| p.slot % 4 != 1));
        assert_eq!(seen, expect);
    }

    #[test]
    fn slot_store_reuses_freed_slots() {
        let mut s: SlotStore<u8, u32> = SlotStore::new();
        let a = s.insert(1, 10);
        let b = s.insert(2, 20);
        assert_eq!(s.remove(a), Some(10));
        assert_eq!(s.remove(a), None, "already free");
        assert_eq!((s.get(a), s.live()), (None, 1));
        *s.get_mut(b).expect("live").0 += 5;
        assert_eq!((s.head(b), s.get(b)), (7, Some(&20)));
        // The freed slot is the next insert's, head and value alike.
        let c = s.insert(3, 30);
        assert_eq!(c, a);
        assert_eq!((s.head(c), s.get(c)), (3, Some(&30)));
        assert_eq!((s.live(), s.capacity_slots()), (2, 2));
    }
}
