//! The index under churn, against a reference model.
//!
//! A posting exists exactly while its slot is live, and freed memory is
//! reused rather than compacted. This suite drives a [`RecordStore`] and an
//! [`InvertedIndex`] the way a windowed joiner does — insert a record and
//! post its tokens, unpost an expired record and free its slot — over a
//! stream ten times longer than its window, and after every single add or
//! remove holds the index to a `BTreeMap<TokenId, Vec<Posting>>`:
//!
//! * every list holds the model's postings, in insertion order;
//! * [`InvertedIndex::postings`] and [`InvertedIndex::tokens`] are exact;
//! * the posting arena, the token arena and the slot count stay bounded by
//!   the peak live postings, tokens and records, so nothing grows with the
//!   stream.
//!
//! Records expire after a random lifetime rather than in arrival order, so
//! postings leave lists from the middle and slots are freed out of order,
//! as bundles are.

use ssj_core::index::{InvertedIndex, Posting, RecordStore, Slot};
use ssj_text::{Record, RecordId, TokenId};
use std::collections::BTreeMap;

/// Records in the stream.
const N: u64 = 3_000;
/// Longest record lifetime; the shortest is half of it.
const WINDOW: u64 = 300;
/// Token universe: ids below `VOCAB` plus as many beyond the index's
/// direct table, so both list lookups churn.
const VOCAB: u32 = 48;
const SPILL: u32 = 1 << 20;
/// Arena length allowed per peak live element: a block is at most four
/// times what it holds, and a free block serves only its own size.
const SLACK: usize = 4;

/// xorshift64*: a fixed stream without a dependency.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: u64) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_f491_4f6c_dd1d) % n
    }
}

fn record(id: u64, rng: &mut Rng) -> Record {
    let len = 1 + rng.below(9) as usize;
    let mut toks: Vec<TokenId> = (0..len)
        .map(|_| {
            let t = rng.below(u64::from(2 * VOCAB)) as u32;
            TokenId(if t < VOCAB { t } else { SPILL + t })
        })
        .collect();
    toks.sort_unstable();
    toks.dedup();
    Record::from_sorted(RecordId(id), id, toks)
}

/// The index, the store, and the model they must agree with.
#[derive(Default)]
struct Churn {
    index: InvertedIndex,
    store: RecordStore,
    model: BTreeMap<TokenId, Vec<Posting>>,
    /// Live slot → the tokens it posted.
    live: BTreeMap<Slot, Vec<TokenId>>,
    steps: usize,
    peak_postings: usize,
    peak_tokens: usize,
    peak_slots: usize,
}

impl Churn {
    fn add(&mut self, token: TokenId, posting: Posting) {
        self.index.add(token, posting);
        self.model.entry(token).or_default().push(posting);
        self.check(token);
    }

    fn remove(&mut self, token: TokenId, slot: Slot) {
        self.index.remove(token, slot);
        let list = self.model.get_mut(&token).expect("posted");
        let at = list.iter().position(|p| p.slot == slot).expect("posted");
        list.remove(at);
        if list.is_empty() {
            self.model.remove(&token);
        }
        self.check(token);
    }

    fn insert(&mut self, r: &Record) -> Slot {
        let slot = self.store.insert(r);
        for (pos, &tok) in r.tokens().iter().enumerate() {
            let pos = pos as u32;
            self.add(tok, Posting { slot, pos });
        }
        self.live.insert(slot, r.tokens().to_vec());
        self.check_store();
        slot
    }

    fn evict(&mut self, slot: Slot) {
        let tokens = self.live.remove(&slot).expect("live slot");
        assert_eq!(self.store.tokens(slot), tokens);
        for &tok in &tokens {
            self.remove(tok, slot);
        }
        self.store.remove(slot);
        self.check_store();
    }

    /// After one add or remove of `touched`: its list, the counters and
    /// the posting arena, then every other list.
    fn check(&mut self, touched: TokenId) {
        self.steps += 1;
        let postings: usize = self.model.values().map(Vec::len).sum();
        self.peak_postings = self.peak_postings.max(postings);
        assert_eq!(self.list(touched), self.model_list(touched));
        assert_eq!(self.index.postings(), postings, "step {}", self.steps);
        assert_eq!(self.index.tokens(), self.model.len(), "step {}", self.steps);
        assert!(
            self.index.arena_len() <= SLACK * self.peak_postings.max(2),
            "step {}: posting arena {} for a peak of {} postings",
            self.steps,
            self.index.arena_len(),
            self.peak_postings
        );
        for t in (0..VOCAB).chain(SPILL + VOCAB..SPILL + 2 * VOCAB) {
            assert_eq!(self.list(TokenId(t)), self.model_list(TokenId(t)));
        }
    }

    /// After a record is stored or freed: every live record reads its own
    /// tokens, and the slots and the token arena stay bounded.
    fn check_store(&mut self) {
        let tokens: usize = self.live.values().map(Vec::len).sum();
        self.peak_tokens = self.peak_tokens.max(tokens);
        self.peak_slots = self.peak_slots.max(self.live.len());
        assert_eq!(self.store.live(), self.live.len());
        assert_eq!(self.store.capacity_slots(), self.peak_slots);
        assert!(
            self.store.token_arena_len() <= SLACK * self.peak_tokens,
            "token arena {} for a peak of {} tokens",
            self.store.token_arena_len(),
            self.peak_tokens
        );
        for (&slot, tokens) in &self.live {
            assert_eq!(self.store.tokens(slot), tokens, "slot {slot}");
        }
    }

    fn list(&self, token: TokenId) -> Vec<Posting> {
        let mut out = Vec::new();
        self.index.scan(token, |_| {}, |p| out.push(p));
        out
    }

    fn model_list(&self, token: TokenId) -> Vec<Posting> {
        self.model.get(&token).cloned().unwrap_or_default()
    }
}

#[test]
fn churn_matches_the_model_and_reuses_memory() {
    let mut rng = Rng(0x9e37_79b9_7f4a_7c15);
    let mut churn = Churn::default();
    // Expiry id → slots expiring then.
    let mut expiring: BTreeMap<u64, Vec<Slot>> = BTreeMap::new();
    let mut arena_at_one_window = 0;
    for id in 0..N {
        while let Some(entry) = expiring.first_entry() {
            if *entry.key() > id {
                break;
            }
            for slot in entry.remove() {
                churn.evict(slot);
            }
        }
        let r = record(id, &mut rng);
        let slot = churn.insert(&r);
        let lifetime = WINDOW / 2 + rng.below(WINDOW / 2 + 1);
        expiring.entry(id + lifetime).or_default().push(slot);
        if id == WINDOW {
            arena_at_one_window = churn.index.arena_len();
        }
    }
    assert!(churn.steps >= 3_000, "{} steps", churn.steps);
    assert!(churn.peak_slots <= WINDOW as usize + 1);
    // Nine windows later the arena has grown by the odd block a list
    // longer than any before needed, not with the stream.
    assert!(
        2 * churn.index.arena_len() <= 3 * arena_at_one_window,
        "posting arena grew from {arena_at_one_window} to {}",
        churn.index.arena_len()
    );

    for slot in expiring.into_values().flatten() {
        churn.evict(slot);
    }
    assert_eq!((churn.index.postings(), churn.index.tokens()), (0, 0));
    assert_eq!(churn.store.live(), 0);
}
