//! The bundle-based joiner: the paper's local join contribution.
//!
//! Streams are full of near-duplicates (reposted articles, re-issued
//! queries). The bundle joiner exploits them by grouping arriving records
//! into *bundles* on the fly:
//!
//! * a bundle holds a **representative** token set (its founding record)
//!   and **members** stored as tiny token deltas `(add, del)` against the
//!   representative;
//! * the inverted index posts **bundles**, not records — a near-duplicate
//!   member adds few or no new postings, so candidate generation touches
//!   far fewer posting entries (reduced *filtering cost*);
//! * a probe is verified against a whole candidate bundle at once (**batch
//!   verification**): the expensive merge `|r ∩ rep|` is computed once and
//!   each member's overlap is derived from its deltas:
//!   `|r ∩ m| = |r ∩ rep| − |r ∩ del_m| + |r ∩ add_m|`, which holds exactly
//!   because `del_m ⊆ rep` and `add_m ∩ rep = ∅`.
//!
//! Grouping is *best effort* and never affects correctness: every candidate
//! member is verified with the exact acceptance predicate, and the bundle
//! posting set is the union of its members' prefix tokens, so the prefix
//! filter stays complete.
//!
//! The prefix scan is **positional**, like PPJoin's, against the
//! representative. A posting carries its token's position `j` in the
//! representative ([`Posting::NO_POS`] for a token only a member's `add`
//! contributed), and each bundle knows `closed`, the length of the
//! representative's leading run that is posted in full. Probe tokens and
//! representative tokens both ascend, so one candidate's hits arrive in
//! ascending `(i, j)`, and while `j < closed` every shared token to the
//! left has itself been a hit: the hit count `α` *is* `|r[..i] ∩ rep[..j]|`.
//! Past `closed` up to `j − closed` shared tokens may be unposted, so `α`
//! is only a lower bound there and the left overlap is bounded by
//! `min(α + (j − closed), i, j)`. At each hit the bundle is dropped when
//! `left + 1 + min(|r|−i−1, |rep|−j−1)` cannot reach the loosest overlap
//! *with the representative* that any use of the bundle needs — a member's
//! requirement discounted by `max_add`, because
//! `|r ∩ m| ≤ |r ∩ rep| + |add_m|`, or the absorption threshold's — which
//! is the same quantity the shared verification already terminates
//! against. Survivors verify from the last hit below `closed` onward,
//! reusing the exact `α` there; a bundle met only through `NO_POS` hits, or
//! only past `closed`, verifies from the start.
//!
//! The scan reads only as much of the probe as the shortest record the
//! joiner has ever stored needs ([`ProbeBounds::probe_prefix_len`]), while
//! every record still posts its full streaming prefix: the same joiner may
//! later be probed by any length.

use super::{prefetch_probe_lists, JoinConfig, MatchPair, StreamJoiner};
use crate::index::{
    prefetch, prefetch_tokens, CandMap, InvertedIndex, Posting, Slot, SlotStore, EVICT_HINT_TOKENS,
    POSTINGS_AHEAD, REF_AHEAD, ROW_AHEAD, TOKENS_AHEAD,
};
use crate::sim::{ProbeBounds, Threshold};
use crate::stats::JoinStats;
use crate::verify;
use crate::window::EvictionQueue;
use ssj_text::{Record, RecordId, TokenId};

/// Tuning knobs for the bundle joiner.
#[derive(Debug, Clone, Copy)]
pub struct BundleConfig {
    /// Join threshold and window.
    pub join: JoinConfig,
    /// Minimum similarity to the representative required to absorb a record
    /// into an existing bundle. Higher values give tighter bundles (smaller
    /// deltas) but fewer absorptions. Values below the join threshold are
    /// allowed — grouping is best-effort and never affects result
    /// correctness — but absorption candidates are only discovered through
    /// the join-threshold prefix index, so very low values mostly loosen
    /// delta sizes rather than find more bundles.
    pub bundle_tau: f64,
    /// Maximum members per bundle (bounds batch-verification cost).
    pub max_members: usize,
    /// Maximum `(|add| + |del|) / |rep|` for an absorbed member (bounds
    /// delta-verification cost).
    pub max_delta_frac: f64,
}

impl BundleConfig {
    /// Defaults from the evaluation: `bundle_tau = max(τ, 0.8)`,
    /// 64 members, deltas up to 25% of the representative.
    pub fn new(join: JoinConfig) -> Self {
        Self {
            join,
            bundle_tau: join.threshold.tau().max(0.8),
            max_members: 64,
            max_delta_frac: 0.25,
        }
    }

    /// Overrides the absorption threshold.
    pub fn with_bundle_tau(mut self, bundle_tau: f64) -> Self {
        self.bundle_tau = bundle_tau;
        self
    }

    /// Overrides the member cap.
    pub fn with_max_members(mut self, max_members: usize) -> Self {
        self.max_members = max_members;
        self
    }

    fn validate(&self) {
        assert!(
            self.bundle_tau > 0.0 && self.bundle_tau <= 1.0,
            "bundle_tau must lie in (0, 1]"
        );
        assert!(self.max_members >= 1, "bundles need at least one member");
        assert!(
            (0.0..=1.0).contains(&self.max_delta_frac),
            "max_delta_frac must lie in [0, 1]"
        );
    }
}

/// A bundle member: identity plus its token delta against the
/// representative.
#[derive(Debug)]
struct Member {
    id: RecordId,
    len: u32,
    /// Tokens in the member but not in the representative (sorted).
    add: Box<[TokenId]>,
    /// Tokens in the representative but not in the member (sorted).
    del: Box<[TokenId]>,
    alive: bool,
}

/// Eviction-queue member index reserved for a bundle's founder, which is
/// stored inline as the representative rather than in `members` (most
/// bundles never absorb anyone, so this keeps them allocation-free).
const FOUNDER_IDX: u32 = u32::MAX;

/// What a candidate bundle's first visit reads: the store's dense head
/// column, so a prefix scan decides "filtered or not, and against which
/// overlap" without touching the [`Bundle`] itself.
#[derive(Debug, Clone, Copy)]
struct BundleHead {
    /// Length bounds over alive members (for the bundle-level length
    /// filter).
    min_len: u32,
    max_len: u32,
    /// Largest `|add|` among alive members — bounds how far a member's
    /// overlap can exceed the representative's. Maintained incrementally on
    /// absorption, recomputed on eviction.
    max_add: u32,
    /// Length of the representative's leading run whose tokens are all
    /// posted: the founder's prefix, extended whenever a member's prefix
    /// posts the next representative token. Postings outlive the members
    /// that brought them, so it never shrinks.
    closed: u32,
    /// `|rep|`, fixed at founding.
    rep_len: u32,
    /// Members absorbed so far, evicted ones included — what the member
    /// cap counts, and the next member's index.
    absorbed: u32,
}

/// A group of near-duplicate records sharing one representative. Its
/// length bounds and counters live in its [`BundleHead`].
#[derive(Debug)]
struct Bundle {
    /// The founding record; its token set is the representative. The
    /// founder is itself a member (with empty deltas) and lives here
    /// rather than in `members`.
    rep: Record,
    founder_alive: bool,
    /// Absorbed members only (the founder is implicit).
    members: Vec<Member>,
    /// Live member count, founder included.
    alive: u32,
    /// Tokens posted to the inverted index for this bundle (sorted), other
    /// than the representative's leading `closed` tokens, which always
    /// are: empty until a member's prefix brings a token of its own, so
    /// most bundles never allocate it. The two are disjoint, and together
    /// they are the union of members' prefix tokens — the completeness
    /// invariant — and exactly what eviction unposts.
    posted_beyond: Vec<TokenId>,
}

impl Bundle {
    fn recompute_len_bounds(&self, head: &mut BundleHead) {
        let mut min_len = u32::MAX;
        let mut max_len = 0;
        let mut max_add = 0;
        if self.founder_alive {
            min_len = head.rep_len;
            max_len = head.rep_len;
        }
        for m in self.members.iter().filter(|m| m.alive) {
            min_len = min_len.min(m.len);
            max_len = max_len.max(m.len);
            max_add = max_add.max(m.add.len() as u32);
        }
        head.min_len = min_len;
        head.max_len = max_len;
        head.max_add = max_add;
    }
}

/// `min_required` of a candidate nothing needs verified: filtered at its
/// first visit, or dropped by the positional filter.
const SKIP: u32 = u32::MAX;

/// Per-candidate-bundle accumulator built during the prefix scan.
#[derive(Debug, Clone, Copy)]
struct BundleAcc {
    slot: Slot,
    /// The loosest overlap with the representative that any use of this
    /// bundle needs, or [`SKIP`].
    min_required: u32,
    /// Copied from the head at the first visit, so a later hit reads this
    /// accumulator only.
    closed: u32,
    rep_len: u32,
    /// Representative-token hits so far.
    alpha: u32,
    /// Probe and representative positions just past the last hit below
    /// `closed`, and `α` as of that hit — the exact overlap of the two
    /// prefixes that end there. All zero while there is no such hit.
    resume_probe: u32,
    resume_rep: u32,
    resume_alpha: u32,
    /// Some alive member passes the bundle-level length filter.
    members_in_range: bool,
    /// The bundle could absorb the probing record.
    groupable: bool,
}

/// One scan's constants: what [`Scan::open`] decides a first visit with.
struct Scan<'a> {
    bounds: &'a ProbeBounds,
    group_bounds: &'a ProbeBounds,
    /// Length-filter window for join results.
    lo: usize,
    hi: Option<usize>,
    /// Matches are being collected (not an insert-only scan).
    emit: bool,
    /// An absorption target is wanted.
    want_group: bool,
    max_members: usize,
}

impl Scan<'_> {
    /// First visit of candidate `slot`: the bundle-level filters and the
    /// overlap everything downstream terminates against.
    #[inline]
    fn open(
        &self,
        slot: Slot,
        store: &SlotStore<BundleHead, Bundle>,
        stats: &mut JoinStats,
    ) -> BundleAcc {
        stats.candidates += 1;
        let head = store.head(slot);
        let lrep = head.rep_len as usize;
        // Bundle-level length filter for join results.
        let members_in_range = (head.max_len as usize) >= self.lo
            && self.hi.is_none_or(|h| (head.min_len as usize) <= h);
        // Is this bundle even a possible absorption target?
        let groupable = self.want_group
            && (head.absorbed as usize) + 1 < self.max_members
            && self.group_bounds.length_compatible(lrep);
        let mut acc = BundleAcc {
            slot,
            min_required: SKIP,
            closed: head.closed,
            rep_len: head.rep_len,
            alpha: 0,
            resume_probe: 0,
            resume_rep: 0,
            resume_alpha: 0,
            members_in_range,
            groupable,
        };
        if !members_in_range && !groupable {
            stats.length_filtered += 1;
            return acc;
        }
        // Early termination is valid against the loosest requirement
        // anything downstream could have: for member emission, the
        // smallest member min-overlap discounted by how much a member's
        // `add` tokens could raise its overlap above the representative's;
        // for the grouping decision, the absorption threshold's own
        // min-overlap (an overlap below it cannot reach `bundle_tau`
        // either). Verification returns the *exact* overlap whenever it
        // returns at all, so both uses stay exact.
        if members_in_range && self.emit {
            // Minimum member requirement without walking the member list:
            // `min_overlap` is nondecreasing in the candidate length for
            // every similarity function, so when the shortest alive member
            // passes the length filter it is the one with the loosest
            // requirement (and `members_in_range` already guarantees
            // `min_len ≤ hi`). Only when the shortest member falls below
            // the filter window do we scan for the shortest member
            // actually inside it — none may be: the bounds can straddle
            // the window.
            let base = if head.min_len as usize >= self.lo {
                Some(self.bounds.min_overlap(head.min_len as usize))
            } else {
                let bundle = store.get(slot).expect("candidates are live");
                let founder = (bundle.founder_alive && self.bounds.length_compatible(lrep))
                    .then(|| self.bounds.min_overlap(lrep));
                bundle
                    .members
                    .iter()
                    .filter(|m| m.alive && self.bounds.length_compatible(m.len as usize))
                    .map(|m| self.bounds.min_overlap(m.len as usize))
                    .chain(founder)
                    .min()
            };
            if let Some(base) = base {
                acc.min_required = base.saturating_sub(head.max_add as usize) as u32;
            }
        }
        if groupable {
            acc.min_required = acc
                .min_required
                .min(self.group_bounds.min_overlap(lrep) as u32);
        }
        acc
    }
}

/// The bundle-based streaming joiner.
#[derive(Debug)]
pub struct BundleJoiner {
    cfg: BundleConfig,
    store: SlotStore<BundleHead, Bundle>,
    index: InvertedIndex,
    /// Eviction entries: (bundle slot, member index).
    queue: EvictionQueue<(Slot, u32)>,
    stats: JoinStats,
    live_members: usize,
    /// Scratch: per-probe candidate accumulators (cleared, not freed).
    acc: CandMap<BundleAcc>,
    /// Per-probe integer bound memo for the join threshold.
    bounds: ProbeBounds,
    /// Per-probe integer bound memo for the absorption threshold.
    group_bounds: ProbeBounds,
    /// Length of the shortest record ever stored, founder or member,
    /// `usize::MAX` before the first: the probe prefix is sized for it
    /// ([`ProbeBounds::probe_prefix_len`]).
    floor: usize,
}

impl BundleJoiner {
    /// A bundle joiner with the given configuration.
    pub fn new(cfg: BundleConfig) -> Self {
        cfg.validate();
        let t = cfg.join.threshold;
        let bundle_threshold = Threshold::new(t.sim_fn(), cfg.bundle_tau);
        Self {
            cfg,
            store: SlotStore::new(),
            index: InvertedIndex::new(),
            queue: EvictionQueue::new(),
            stats: JoinStats::new(),
            live_members: 0,
            acc: CandMap::default(),
            bounds: ProbeBounds::new(t),
            group_bounds: ProbeBounds::new(bundle_threshold),
            floor: usize::MAX,
        }
    }

    /// Convenience: defaults on top of a join config.
    pub fn with_defaults(join: JoinConfig) -> Self {
        Self::new(BundleConfig::new(join))
    }

    /// Live bundle count (for reporting index compression).
    pub fn bundles(&self) -> usize {
        self.store.live()
    }

    /// Evicts what the window no longer holds. A bundle whose last member
    /// goes takes its postings — `rep[..closed]` and `posted_beyond` — with
    /// it, before its slot is freed.
    fn evict(&mut self, probe_id: u64, probe_ts: u64) {
        let (store, index) = (&mut self.store, &mut self.index);
        let stats = &mut self.stats;
        let live_members = &mut self.live_members;
        let evicted = self.queue.drain_expired(
            self.cfg.join.window,
            probe_id,
            probe_ts,
            |(slot, member_idx)| {
                let (head, bundle) = store.get_mut(slot).expect("queued member in live bundle");
                if member_idx == FOUNDER_IDX {
                    debug_assert!(bundle.founder_alive, "founder evicted twice");
                    bundle.founder_alive = false;
                } else {
                    let m = &mut bundle.members[member_idx as usize];
                    debug_assert!(m.alive, "member evicted twice");
                    m.alive = false;
                }
                bundle.alive -= 1;
                *live_members -= 1;
                stats.evicted += 1;
                if bundle.alive == 0 {
                    let posted = &bundle.rep.tokens()[..head.closed as usize];
                    for &tok in posted.iter().chain(&bundle.posted_beyond) {
                        index.remove(tok, slot);
                    }
                    store.remove(slot);
                } else {
                    bundle.recompute_len_bounds(head);
                }
            },
        );
        if evicted > 0 {
            self.prefetch_evictions();
        }
    }

    /// The eviction lookahead, run after each eviction pass that evicted
    /// something: the queue's front is one eviction away, the entry `d − 1`
    /// behind it `d` evictions away. For each entry it fetches, in stages,
    /// what evicting it reads: at [`ROW_AHEAD`] its bundle and head; at [`TOKENS_AHEAD`]
    /// the first line of its members when the bundle outlives the eviction
    /// (their bounds are recomputed), of its representative otherwise;
    /// and, for a bundle the eviction empties, at most
    /// [`EVICT_HINT_TOKENS`] of its posted tokens' lists through
    /// [`InvertedIndex::prefetch_lists`]'s two steps.
    fn prefetch_evictions(&self) {
        let ahead = |distance: usize| self.queue.behind_front(distance - 1).map(|&(slot, _)| slot);
        if let Some(slot) = ahead(ROW_AHEAD) {
            self.store.prefetch(slot);
            self.store.prefetch_head(slot);
        }
        if let Some(bundle) = ahead(TOKENS_AHEAD).and_then(|slot| self.store.get(slot)) {
            match bundle.members.first() {
                Some(member) if bundle.alive > 1 => prefetch(member),
                _ => bundle.rep.tokens().iter().take(1).for_each(prefetch),
            }
        }
        for distance in [REF_AHEAD, POSTINGS_AHEAD] {
            let Some(slot) = ahead(distance) else {
                continue;
            };
            if let Some(bundle) = self.store.get(slot).filter(|b| b.alive == 1) {
                let closed = self.store.head(slot).closed as usize;
                let posted = bundle.rep.tokens()[..closed].iter();
                let posted = posted.chain(&bundle.posted_beyond).take(EVICT_HINT_TOKENS);
                self.index.prefetch_lists(posted, distance);
            }
        }
    }

    /// Scans `record`'s prefix for candidate bundles, batch-verifies the
    /// survivors, optionally emitting matches, and returns the best
    /// absorption target `(slot, similarity-to-rep)` if one qualifies.
    fn probe_internal(
        &mut self,
        record: &Record,
        mut out: Option<&mut Vec<MatchPair>>,
        want_group: bool,
    ) -> Option<(Slot, f64)> {
        let t = self.cfg.join.threshold;
        let lr = record.len();
        self.bounds.rebuild(lr);
        if want_group {
            self.group_bounds.rebuild(lr);
        }
        let scan = Scan {
            bounds: &self.bounds,
            group_bounds: &self.group_bounds,
            lo: t.min_len(lr),
            hi: t.max_len(lr),
            emit: out.is_some(),
            want_group,
            max_members: self.cfg.max_members,
        };
        // Scan as much of the probe as the shortest stored record needs,
        // for the join and for absorption. Absorption's prefix is the
        // longer one when `bundle_tau` sits below τ; the join's streaming
        // prefix caps it, as it caps every scan.
        let join_len = if scan.emit {
            self.bounds.probe_prefix_len(self.floor)
        } else {
            0
        };
        let group_len = if want_group {
            let full = self.group_bounds.probe_prefix_len(self.floor);
            full.min(self.bounds.prefix_len())
        } else {
            0
        };
        let scan_len = join_len.max(group_len);

        self.acc.next_probe();
        {
            let store = &self.store;
            let acc = &mut self.acc;
            let stats = &mut self.stats;
            self.index.scan_prefix(
                record.prefix(scan_len),
                |slot| store.prefetch_head(slot),
                |i, p| {
                    let i = i as u32;
                    stats.posting_hits += 1;
                    let c = acc.entry(p.slot, || scan.open(p.slot, store, stats));
                    if c.min_required == SKIP || p.pos == Posting::NO_POS {
                        return;
                    }
                    // Positional filter: the most `|r ∩ rep|` can be if
                    // this shared token is counted.
                    let j = p.pos;
                    let left = (c.alpha + j.saturating_sub(c.closed)).min(i).min(j);
                    let right = (lr as u32 - i - 1).min(c.rep_len - j - 1);
                    if left + 1 + right < c.min_required {
                        c.min_required = SKIP;
                        stats.position_filtered += 1;
                        return;
                    }
                    c.alpha += 1;
                    if j < c.closed {
                        c.resume_probe = i + 1;
                        c.resume_rep = j + 1;
                        c.resume_alpha = c.alpha;
                    }
                },
            );
        }

        let mut best: Option<(Slot, f64)> = None;
        // Survivors in first-visit order, fetched ahead of their merge: the
        // bundle of survivor n + 2, and the representative tokens of
        // survivor n + 1, whose bundle the step before fetched (bundle
        // slots and token runs rarely share cache lines).
        let mut survivors = self
            .acc
            .cands()
            .iter()
            .copied()
            .filter(|c| c.min_required != SKIP);
        let (mut next, mut after) = (survivors.next(), survivors.next());
        while let Some(c) = next {
            (next, after) = (after, survivors.next());
            if let Some(a) = after {
                self.store.prefetch(a.slot);
            }
            if let Some(bundle) = next.and_then(|n| self.store.get(n.slot)) {
                prefetch_tokens(bundle.rep.tokens());
            }
            let bundle = self.store.get(c.slot).expect("candidates are live");
            let rep = bundle.rep.tokens();
            let lrep = rep.len();

            // Shared verification: one merge against the representative,
            // resumed past the last hit below `closed` when there is one.
            let min_required = c.min_required as usize;
            self.stats.verifications += 1;
            let o_rep = if c.resume_probe > 0 {
                let (from_r, from_rep) = (c.resume_probe as usize, c.resume_rep as usize);
                self.stats.verify_steps += ((lr - from_r) + (lrep - from_rep)) as u64;
                verify::overlap_from(
                    record.tokens(),
                    rep,
                    from_r,
                    from_rep,
                    c.resume_alpha as usize,
                    min_required,
                )
            } else {
                self.stats.verify_steps += (lr + lrep) as u64;
                verify::overlap_with_min(record.tokens(), rep, min_required)
            };
            let Some(o_rep) = o_rep else {
                continue;
            };

            if c.groupable {
                let sim_rep = t.similarity(o_rep, lr, lrep);
                if sim_rep >= self.cfg.bundle_tau && best.is_none_or(|(_, s)| sim_rep > s) {
                    best = Some((c.slot, sim_rep));
                }
            }

            if !c.members_in_range {
                continue;
            }
            if let Some(out) = out.as_deref_mut() {
                // The founder's deltas are empty, so its overlap is exactly
                // the representative's — no delta intersection needed.
                if bundle.founder_alive && self.bounds.length_compatible(lrep) {
                    self.stats.delta_verifications += 1;
                    if t.matches(o_rep, lr, lrep) {
                        self.stats.results += 1;
                        out.push(MatchPair {
                            earlier: bundle.rep.id(),
                            later: record.id(),
                            similarity: t.similarity(o_rep, lr, lrep),
                        });
                    }
                }
                for m in bundle.members.iter().filter(|m| m.alive) {
                    let lm = m.len as usize;
                    if !self.bounds.length_compatible(lm) {
                        continue;
                    }
                    self.stats.delta_verifications += 1;
                    let o_m = o_rep + verify::intersect_small(&m.add, record.tokens())
                        - verify::intersect_small(&m.del, record.tokens());
                    debug_assert!(o_m <= lr.min(lm));
                    if t.matches(o_m, lr, lm) {
                        self.stats.results += 1;
                        out.push(MatchPair {
                            earlier: m.id,
                            later: record.id(),
                            similarity: t.similarity(o_m, lr, lm),
                        });
                    }
                }
            }
        }
        best
    }

    /// Inserts `record`, absorbing it into `target` when the delta fits,
    /// founding a new bundle otherwise.
    fn insert_with(&mut self, record: &Record, target: Option<(Slot, f64)>) {
        self.floor = self.floor.min(record.len());
        let len = record.len() as u32;
        if let Some((slot, _)) = target {
            if let Some((head, bundle)) = self.store.get_mut(slot) {
                let rep = bundle.rep.tokens();
                let max_delta =
                    ((self.cfg.max_delta_frac * rep.len() as f64).floor() as usize).max(1);
                let (add, del) = token_deltas(record.tokens(), rep);
                if (head.absorbed as usize) + 1 < self.cfg.max_members
                    && add.len() + del.len() <= max_delta
                {
                    // Post any prefix tokens this member brings that the
                    // bundle has not posted yet (keeps the union invariant),
                    // at their position in the representative if it has
                    // them.
                    self.bounds.rebuild(record.len());
                    let closed_run = &rep[..head.closed as usize];
                    for &tok in record.prefix(self.bounds.prefix_len()) {
                        if closed_run.binary_search(&tok).is_ok() {
                            continue;
                        }
                        if let Err(ins) = bundle.posted_beyond.binary_search(&tok) {
                            bundle.posted_beyond.insert(ins, tok);
                            let pos = rep
                                .binary_search(&tok)
                                .map_or(Posting::NO_POS, |j| j as u32);
                            self.index.add(tok, Posting { slot, pos });
                            self.stats.postings_created += 1;
                        }
                    }
                    // Extend the closed run over tokens members posted,
                    // which then leave `posted_beyond`: a token is in one
                    // of the two, never both.
                    while let Some(at) = rep
                        .get(head.closed as usize)
                        .and_then(|tok| bundle.posted_beyond.binary_search(tok).ok())
                    {
                        bundle.posted_beyond.remove(at);
                        head.closed += 1;
                    }
                    let member_idx = head.absorbed;
                    debug_assert_eq!(member_idx as usize, bundle.members.len());
                    head.absorbed += 1;
                    head.max_add = head.max_add.max(add.len() as u32);
                    head.min_len = head.min_len.min(len);
                    head.max_len = head.max_len.max(len);
                    bundle.members.push(Member {
                        id: record.id(),
                        len,
                        add: add.into(),
                        del: del.into(),
                        alive: true,
                    });
                    bundle.alive += 1;
                    self.queue
                        .push(record.id().0, record.timestamp(), (slot, member_idx));
                    self.live_members += 1;
                    self.stats.bundle_absorbed += 1;
                    self.stats.indexed += 1;
                    return;
                }
            }
        }

        // Found a new bundle. The founder lives inline as the
        // representative: no member allocation for singleton bundles.
        self.bounds.rebuild(record.len());
        let prefix = record.prefix(self.bounds.prefix_len());
        let head = BundleHead {
            min_len: len,
            max_len: len,
            max_add: 0,
            closed: prefix.len() as u32,
            rep_len: len,
            absorbed: 0,
        };
        let slot = self.store.insert(
            head,
            Bundle {
                rep: record.clone(),
                founder_alive: true,
                members: Vec::new(),
                alive: 1,
                posted_beyond: Vec::new(),
            },
        );
        for (pos, &tok) in prefix.iter().enumerate() {
            let pos = pos as u32;
            self.index.add(tok, Posting { slot, pos });
            self.stats.postings_created += 1;
        }
        self.queue
            .push(record.id().0, record.timestamp(), (slot, FOUNDER_IDX));
        self.live_members += 1;
        self.stats.bundles_created += 1;
        self.stats.indexed += 1;
    }
}

/// Inverse of [`token_deltas`]: rebuilds a member's token set
/// `(rep \ del) ∪ add` into `out` (cleared first) as one sorted merge.
/// Exact because `del ⊆ rep` and `add ∩ rep = ∅` (the delta invariants).
fn apply_deltas(rep: &[TokenId], add: &[TokenId], del: &[TokenId], out: &mut Vec<TokenId>) {
    out.clear();
    let mut ai = 0;
    let mut di = 0;
    for &tok in rep {
        while ai < add.len() && add[ai] < tok {
            out.push(add[ai]);
            ai += 1;
        }
        if di < del.len() && del[di] == tok {
            di += 1;
            continue;
        }
        out.push(tok);
    }
    out.extend_from_slice(&add[ai..]);
    debug_assert_eq!(di, del.len(), "del must be a subset of rep");
}

/// `(a \ b, b \ a)` of two sorted token slices.
fn token_deltas(a: &[TokenId], b: &[TokenId]) -> (Vec<TokenId>, Vec<TokenId>) {
    let mut add = Vec::new();
    let mut del = Vec::new();
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Equal => {
                i += 1;
                j += 1;
            }
            std::cmp::Ordering::Less => {
                add.push(a[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                del.push(b[j]);
                j += 1;
            }
        }
    }
    add.extend_from_slice(&a[i..]);
    del.extend_from_slice(&b[j..]);
    (add, del)
}

impl StreamJoiner for BundleJoiner {
    fn name(&self) -> &'static str {
        "bundle"
    }

    fn probe(&mut self, record: &Record, out: &mut Vec<MatchPair>) {
        self.evict(record.id().0, record.timestamp());
        self.probe_internal(record, Some(out), false);
        self.stats.probed += 1;
    }

    fn insert(&mut self, record: &Record) {
        self.evict(record.id().0, record.timestamp());
        let target = self.probe_internal(record, None, true);
        self.insert_with(record, target);
    }

    fn process(&mut self, record: &Record, out: &mut Vec<MatchPair>) {
        // Single scan serving both the join probe and the grouping decision.
        self.evict(record.id().0, record.timestamp());
        let target = self.probe_internal(record, Some(out), true);
        self.stats.probed += 1;
        self.insert_with(record, target);
    }

    fn prefetch_probe(&mut self, record: &Record, distance: usize) {
        prefetch_probe_lists(&self.index, &mut self.bounds, self.floor, record, distance);
    }

    fn visit_window(&self, visit: &mut dyn FnMut(RecordId, u64, &[TokenId])) {
        // The queue holds (bundle, member) handles in arrival order; each
        // member's full token set is rebuilt from its delta against the
        // representative into one reused buffer, so the walk is exact even
        // though the joiner never stores member records.
        let mut scratch = Vec::new();
        for (id, ts, &(slot, member_idx)) in self.queue.entries() {
            let bundle = self.store.get(slot).expect("queued member in live bundle");
            if member_idx == FOUNDER_IDX {
                debug_assert!(bundle.founder_alive, "queued founder is alive");
                debug_assert_eq!(bundle.rep.id().0, id);
                debug_assert_eq!(bundle.rep.timestamp(), ts);
                visit(bundle.rep.id(), ts, bundle.rep.tokens());
                continue;
            }
            let m = &bundle.members[member_idx as usize];
            debug_assert!(m.alive, "queued member is alive");
            debug_assert_eq!(m.id.0, id);
            apply_deltas(bundle.rep.tokens(), &m.add, &m.del, &mut scratch);
            debug_assert_eq!(scratch.len(), m.len as usize);
            visit(m.id, ts, &scratch);
        }
    }

    fn stats(&self) -> &JoinStats {
        &self.stats
    }

    fn stored(&self) -> usize {
        self.live_members
    }

    fn postings(&self) -> usize {
        self.index.postings()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::join::{run_stream, NaiveJoiner};
    use crate::window::Window;
    use ssj_text::RecordId;

    fn rec(id: u64, toks: &[u32]) -> Record {
        Record::from_sorted(
            RecordId(id),
            id,
            toks.iter().copied().map(TokenId).collect(),
        )
    }

    fn assert_same_as_naive(cfg: BundleConfig, records: &[Record]) {
        let mut naive = NaiveJoiner::new(cfg.join);
        let mut bj = BundleJoiner::new(cfg);
        let mut expect: Vec<_> = run_stream(&mut naive, records)
            .iter()
            .map(|m| m.key())
            .collect();
        let mut got: Vec<_> = run_stream(&mut bj, records)
            .iter()
            .map(|m| m.key())
            .collect();
        expect.sort_unstable();
        got.sort_unstable();
        assert_eq!(expect, got);
    }

    #[test]
    fn token_deltas_basic() {
        let a: Vec<TokenId> = [1u32, 3, 5].iter().map(|&x| TokenId(x)).collect();
        let b: Vec<TokenId> = [1u32, 4, 5, 6].iter().map(|&x| TokenId(x)).collect();
        let (add, del) = token_deltas(&a, &b);
        assert_eq!(add, vec![TokenId(3)]);
        assert_eq!(del, vec![TokenId(4), TokenId(6)]);
    }

    #[test]
    fn near_duplicates_are_absorbed() {
        let cfg = BundleConfig::new(JoinConfig::jaccard(0.6));
        let mut j = BundleJoiner::new(cfg);
        let mut out = Vec::new();
        j.process(&rec(0, &[1, 2, 3, 4, 5, 6, 7, 8, 9, 10]), &mut out);
        j.process(&rec(1, &[1, 2, 3, 4, 5, 6, 7, 8, 9, 11]), &mut out);
        j.process(&rec(2, &[1, 2, 3, 4, 5, 6, 7, 8, 9, 10]), &mut out);
        assert_eq!(j.bundles(), 1, "all three should share one bundle");
        assert_eq!(j.stats().bundle_absorbed, 2);
        assert_eq!(out.len(), 3); // all pairs match at 0.6
    }

    #[test]
    fn dissimilar_records_found_new_bundles() {
        let cfg = BundleConfig::new(JoinConfig::jaccard(0.8));
        let mut j = BundleJoiner::new(cfg);
        let mut out = Vec::new();
        j.process(&rec(0, &[1, 2, 3]), &mut out);
        j.process(&rec(1, &[10, 20, 30]), &mut out);
        assert_eq!(j.bundles(), 2);
        assert_eq!(j.stats().bundles_created, 2);
    }

    #[test]
    fn agrees_with_naive_mixed_stream() {
        let mut records = Vec::new();
        for i in 0..60u64 {
            let fam = (i % 5) as u32 * 50;
            let variant = (i % 3) as u32;
            records.push(rec(
                i,
                &[fam, fam + 1, fam + 2, fam + 3, fam + 4, fam + 5 + variant],
            ));
        }
        assert_same_as_naive(BundleConfig::new(JoinConfig::jaccard(0.7)), &records);
    }

    #[test]
    fn agrees_with_naive_windowed() {
        let records: Vec<Record> = (0..40)
            .map(|i| {
                let fam = (i % 4) as u32 * 20;
                rec(i, &[fam, fam + 1, fam + 2, fam + 3, 1000 + (i % 2) as u32])
            })
            .collect();
        let cfg = BundleConfig::new(JoinConfig {
            threshold: Threshold::jaccard(0.6),
            window: Window::Count(9),
        });
        assert_same_as_naive(cfg, &records);
    }

    #[test]
    fn member_cap_respected() {
        let cfg = BundleConfig::new(JoinConfig::jaccard(0.5)).with_max_members(2);
        let mut j = BundleJoiner::new(cfg);
        let mut out = Vec::new();
        for i in 0..5u64 {
            j.process(&rec(i, &[1, 2, 3, 4, 5]), &mut out);
        }
        assert!(j.bundles() >= 2, "cap forces extra bundles");
        for slotted in 0..j.store.capacity_slots() as u32 {
            if let Some(b) = j.store.get(slotted) {
                assert!(b.members.len() <= 2);
            }
        }
        // Results unaffected: 5 identical records → C(5,2)=10 pairs.
        assert_eq!(out.len(), 10);
    }

    #[test]
    fn eviction_kills_members_and_bundles() {
        let cfg = BundleConfig::new(JoinConfig {
            threshold: Threshold::jaccard(0.9),
            window: Window::Count(2),
        });
        let mut j = BundleJoiner::new(cfg);
        let mut out = Vec::new();
        for i in 0..10u64 {
            j.process(&rec(i, &[1, 2, 3, 4]), &mut out);
        }
        assert!(j.stored() <= 3);
        assert!(j.stats().evicted >= 7);
        let last = out.iter().filter(|m| m.later == RecordId(9)).count();
        assert_eq!(last, 2);
    }

    #[test]
    fn delta_verification_matches_exact_overlap() {
        // Probe similar to a member but less similar to the representative.
        let cfg = BundleConfig::new(JoinConfig::jaccard(0.6)).with_bundle_tau(0.6);
        let mut j = BundleJoiner::new(cfg);
        let mut out = Vec::new();
        j.process(&rec(0, &[1, 2, 3, 4, 5, 6, 7, 8, 9, 10]), &mut out);
        // Member differs from rep in two tokens.
        j.process(&rec(1, &[1, 2, 3, 4, 5, 6, 7, 8, 11, 12]), &mut out);
        // Probe equals the member exactly.
        j.process(&rec(2, &[1, 2, 3, 4, 5, 6, 7, 8, 11, 12]), &mut out);
        let pair_12 = out
            .iter()
            .find(|m| m.key() == (1, 2))
            .expect("member match found");
        assert!((pair_12.similarity - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "bundle_tau")]
    fn config_validates_bundle_tau() {
        let cfg = BundleConfig::new(JoinConfig::jaccard(0.9)).with_bundle_tau(0.0);
        let _ = BundleJoiner::new(cfg);
    }

    #[test]
    fn loose_bundle_tau_below_join_tau_stays_exact() {
        // Grouping threshold below the join threshold forms looser bundles
        // but must not change the result set.
        let mut records = Vec::new();
        for i in 0..80u64 {
            let fam = (i % 6) as u32 * 40;
            let variant = (i % 4) as u32;
            records.push(rec(i, &[fam, fam + 1, fam + 2, fam + 3, fam + 8 + variant]));
        }
        let cfg = BundleConfig::new(JoinConfig::jaccard(0.8)).with_bundle_tau(0.5);
        assert_same_as_naive(cfg, &records);
    }

    /// A member's prefix can post a representative token *past* an
    /// unposted one. A probe that hits there may share the unposted token
    /// too, so the hit count alone is not the left overlap: without the
    /// `j − closed` allowance this probe's bound reads 8 < 9 and its match
    /// with the founder is lost.
    #[test]
    fn a_hit_past_closed_allows_for_the_unposted_tokens_before_it() {
        let join = JoinConfig::jaccard(0.69);
        let mut j = BundleJoiner::new(BundleConfig::new(join).with_bundle_tau(0.6));
        let mut out = Vec::new();
        // Founder: prefix of 4, so positions 0..4 are posted and closed.
        j.process(
            &rec(0, &[1, 6, 12, 15, 17, 18, 20, 28, 30, 32, 38, 39]),
            &mut out,
        );
        // Member without 1 and 17: its prefix 6, 12, 15, 18 posts 18 —
        // position 5 — and leaves 17, position 4, unposted.
        j.process(&rec(1, &[6, 12, 15, 18, 20, 28, 30, 32, 38, 39]), &mut out);
        assert_eq!((j.bundles(), j.stats().bundle_absorbed), (1, 1));
        assert_eq!(j.store.head(0).closed, 4);
        let mut at_18 = Vec::new();
        j.index.scan(TokenId(18), |_| {}, |p| at_18.push(p));
        assert_eq!(at_18, vec![Posting { slot: 0, pos: 5 }]);
        out.clear();
        // Shares 15 (a hit below `closed`), 17 (unposted) and 18 (a hit
        // past `closed`) with the founder, and every token after: overlap
        // 9 of the 9 required at |r| = 10, |rep| = 12.
        j.process(&rec(2, &[10, 15, 17, 18, 20, 28, 30, 32, 38, 39]), &mut out);
        assert_eq!(out.iter().map(|m| m.key()).collect::<Vec<_>>(), [(0, 2)]);
        assert_eq!(j.stats().position_filtered, 0);
    }

    /// A prefix token the representative lacks is posted without a
    /// position: it makes the bundle a candidate and says nothing else.
    #[test]
    fn a_members_add_token_is_posted_without_a_position() {
        let join = JoinConfig::jaccard(0.6);
        let mut j = BundleJoiner::new(BundleConfig::new(join).with_bundle_tau(0.6));
        let mut out = Vec::new();
        j.process(
            &rec(0, &[10, 20, 30, 40, 50, 60, 70, 80, 90, 100]),
            &mut out,
        );
        // 5 replaces 10: the member's prefix starts with a token the
        // representative does not have.
        j.process(&rec(1, &[5, 20, 30, 40, 50, 60, 70, 80, 90, 100]), &mut out);
        assert_eq!(j.stats().bundle_absorbed, 1);
        let mut at_5 = Vec::new();
        j.index.scan(TokenId(5), |_| {}, |p| at_5.push(p));
        assert_eq!(
            at_5,
            vec![Posting {
                slot: 0,
                pos: Posting::NO_POS
            }]
        );
        out.clear();
        // Found through 5 alone, verified from the start, matched by the
        // member only.
        j.process(&rec(2, &[5, 60, 70, 80, 90, 100]), &mut out);
        assert_eq!(out.iter().map(|m| m.key()).collect::<Vec<_>>(), [(1, 2)]);
        // Every stored record has 10 tokens, so each probe scans only the
        // prefix a 10-token partner needs, not its full streaming prefix:
        // record 1 reads 3 tokens (not 5) and hits 20 and 30; record 2
        // reads 1 token (not 3, whose 60 and 70 are past the posted run
        // anyway) and hits 5.
        assert_eq!(
            j.stats().posting_hits,
            2 + 1,
            "record 1's two hits, then one"
        );
    }

    /// A member whose prefix fills the gap at `closed` extends the closed
    /// run over the tokens members posted before it, and those leave
    /// `posted_beyond`: each posted token is in exactly one of the two, so
    /// evicting the bundle unposts each once and empties the index.
    #[test]
    fn closing_the_run_moves_tokens_out_of_posted_beyond() {
        let join = JoinConfig::jaccard(0.69).with_window(Window::Count(3));
        let mut j = BundleJoiner::new(BundleConfig::new(join).with_bundle_tau(0.6));
        let posted = |j: &BundleJoiner| {
            let bundle = j.store.get(0).expect("live");
            (j.store.head(0).closed, bundle.posted_beyond.clone())
        };
        let mut out = Vec::new();
        j.process(
            &rec(0, &[1, 6, 12, 15, 17, 18, 20, 28, 30, 32, 38, 39]),
            &mut out,
        );
        // Posts 18, position 5, past the unposted 17.
        j.process(&rec(1, &[6, 12, 15, 18, 20, 28, 30, 32, 38, 39]), &mut out);
        assert_eq!(posted(&j), (4, vec![TokenId(18)]));
        // Posts 17, position 4: the run closes over 17 and 18.
        j.process(&rec(2, &[12, 15, 17, 18, 20, 28, 30, 32, 38, 39]), &mut out);
        assert_eq!((j.bundles(), j.stats().bundle_absorbed), (1, 2));
        assert_eq!(posted(&j), (6, vec![]));
        assert_eq!(j.postings(), 6);
        // A probe past the window evicts all three members.
        j.probe(&rec(10, &[100]), &mut out);
        assert_eq!((j.stored(), j.bundles(), j.postings()), (0, 0, 0));
    }
}
