//! Structural invariants of store/index compaction: remap-table shape,
//! posting accounting across interleaved add/evict/prune/compact cycles,
//! and window-snapshot identity across a compaction.
//!
//! The repo-level `tests/compaction.rs` checks end-to-end result
//! equivalence over compaction-heavy streams; this suite pins the
//! accounting contracts those runs rely on — [`InvertedIndex::postings`]
//! as a lazy upper bound that snaps back to exact after
//! [`InvertedIndex::apply_remap`], hole-free arenas after a rebuild, and
//! snapshots that cannot tell whether a compaction happened.

use ssj_core::index::{compact_all, should_compact, InvertedIndex, Posting, RecordStore, Slot};
use ssj_core::snapshot::{encode_window_vec, SnapshotEntry};
use ssj_core::window::EvictionQueue;
use ssj_core::Window;
use ssj_text::{Record, RecordId, TokenId};
use std::collections::BTreeMap;

fn rec(id: u64, toks: &[u32]) -> Record {
    assert!(toks.windows(2).all(|w| w[0] < w[1]));
    Record::from_sorted(
        RecordId(id),
        id,
        toks.iter().copied().map(TokenId).collect(),
    )
}

/// Indexes every token of `record` (position = token index), mirroring an
/// unbounded-prefix joiner.
fn index_all(index: &mut InvertedIndex, slot: Slot, record: &Record) {
    for (pos, &tok) in record.tokens().iter().enumerate() {
        index.add(
            tok,
            Posting {
                slot,
                pos: pos as u32,
            },
        );
    }
}

#[test]
fn remap_densely_renumbers_live_slots_in_order() {
    let mut store = RecordStore::new();
    let records: Vec<Record> = (0..10)
        .map(|i| rec(i, &[i as u32, i as u32 + 100]))
        .collect();
    let slots: Vec<Slot> = records.iter().map(|r| store.insert(r)).collect();
    for &s in slots.iter().filter(|&&s| s % 2 == 1) {
        assert!(store.remove(s));
    }
    let arena_before = store.token_arena_len();
    let remap = store.compact();
    assert_eq!(remap.len(), 10);
    let mut next = 0 as Slot;
    for (old, &new) in remap.iter().enumerate() {
        if old % 2 == 1 {
            assert_eq!(new, Slot::MAX, "dead slot {old} must map nowhere");
        } else {
            assert_eq!(new, next, "live slots renumber densely in order");
            next += 1;
        }
    }
    assert_eq!(store.live(), 5);
    assert_eq!(store.dead(), 0);
    assert!(store.token_arena_len() < arena_before);
    // Contents rode along: each surviving slot still resolves to the same
    // record.
    for (old, &new) in remap.iter().enumerate() {
        if new != Slot::MAX {
            let r = store.to_record(new);
            assert_eq!(r.id(), RecordId(old as u64));
            assert_eq!(r.tokens(), records[old].tokens());
        }
    }
}

#[test]
fn postings_is_an_upper_bound_until_remap_makes_it_exact() {
    let mut store = RecordStore::new();
    let mut index = InvertedIndex::new();
    let mut queue: EvictionQueue<Slot> = EvictionQueue::new();

    // 6 records sharing token 7; tokens 100+i are private.
    let records: Vec<Record> = (0..6).map(|i| rec(i, &[7, 100 + i as u32])).collect();
    let mut slots = Vec::new();
    for r in &records {
        let s = store.insert(r);
        index_all(&mut index, s, r);
        queue.push(r.id().0, r.timestamp(), s);
        slots.push(s);
    }
    assert_eq!(index.postings(), 12);

    // Expire records 0 and 1 (count-window 3 behind probe id 5) without
    // telling the index: the count may not move (lazy pruning), so it
    // stays an upper bound.
    let store_ref = &mut store;
    queue.drain_expired(Window::Count(3), 5, 5, |slot| {
        assert!(store_ref.remove(slot));
    });
    assert_eq!(store.live(), 4);
    assert_eq!(index.postings(), 12, "eviction alone must not re-count");

    // A scan over the shared token prunes its dead postings exactly.
    let mut visited = Vec::new();
    index.scan_prune(
        TokenId(7),
        |_| {},
        |s| store.is_live(s),
        |p| visited.push(p.slot),
    );
    assert_eq!(visited, vec![slots[2], slots[3], slots[4], slots[5]]);
    assert_eq!(index.postings(), 10, "2 dead postings pruned from token 7");

    // Remap drops every remaining dead posting: exact again.
    let remap = compact_all(&mut store, &mut index, &mut queue);
    assert_eq!(index.postings(), 8, "4 live records x 2 tokens");
    assert_eq!(index.garbage_len(), 0, "rebuilt arena is hole-free");
    assert_eq!(queue.len(), 4);

    // Post-remap scans see the renumbered slots, same order, same records.
    let mut after = Vec::new();
    index.scan_prune(
        TokenId(7),
        |_| {},
        |s| store.is_live(s),
        |p| after.push(p.slot),
    );
    let expect: Vec<Slot> = slots[2..].iter().map(|&s| remap[s as usize]).collect();
    assert_eq!(after, expect);
    for (&new, old_id) in after.iter().zip([2u64, 3, 4, 5]) {
        assert_eq!(store.id(new), RecordId(old_id));
    }
}

#[test]
fn interleaved_add_evict_prune_compact_matches_a_reference_model() {
    let mut store = RecordStore::new();
    let mut index = InvertedIndex::new();
    let mut queue: EvictionQueue<Slot> = EvictionQueue::new();
    // Reference: record id -> token list, for everything currently live.
    let mut model: BTreeMap<u64, Vec<u32>> = BTreeMap::new();

    // 3000 records, sliding count-window of 200, a pruning scan every 16
    // records, a full compaction whenever the store says so — the same
    // interleaving the joiners produce, without any joiner logic on top.
    let window = Window::Count(200);
    let mut compactions = 0usize;
    for id in 0..3000u64 {
        let mut toks: Vec<u32> = (0..4).map(|j| ((id * 7 + j * 131) % 797) as u32).collect();
        toks.sort_unstable();
        toks.dedup();
        let r = rec(id, &toks);

        {
            let store_ref = &mut store;
            let model_ref = &mut model;
            queue.drain_expired(window, id, id, |slot| {
                let dead = store_ref.id(slot).0;
                assert!(store_ref.remove(slot));
                assert!(model_ref.remove(&dead).is_some());
            });
        }

        let slot = store.insert(&r);
        index_all(&mut index, slot, &r);
        queue.push(id, id, slot);
        model.insert(id, toks.clone());

        if id % 16 == 0 {
            index.scan_prune(TokenId(toks[0]), |_| {}, |s| store.is_live(s), |_| {});
        }
        if should_compact(store.live(), store.dead()) {
            compact_all(&mut store, &mut index, &mut queue);
            compactions += 1;
            assert_eq!(index.garbage_len(), 0);
            assert_eq!(store.dead(), 0);
        }
    }
    assert!(compactions > 0, "workload never tripped the threshold");

    // Settle to exact, then compare the whole index to the model.
    compact_all(&mut store, &mut index, &mut queue);
    let model_postings: usize = model.values().map(Vec::len).sum();
    assert_eq!(index.postings(), model_postings);
    assert_eq!(store.live(), model.len());
    let mut scanned: BTreeMap<u64, Vec<(u32, u32)>> = BTreeMap::new();
    for t in 0..797u32 {
        index.scan_prune(
            TokenId(t),
            |_| {},
            |s| store.is_live(s),
            |p| {
                scanned
                    .entry(store.id(p.slot).0)
                    .or_default()
                    .push((p.pos, t));
            },
        );
    }
    let from_index: BTreeMap<u64, Vec<u32>> = scanned
        .into_iter()
        .map(|(id, mut tp)| {
            tp.sort_unstable();
            (id, tp.into_iter().map(|(_, t)| t).collect())
        })
        .collect();
    assert_eq!(from_index, model, "index contents diverged from the model");
}

#[test]
fn window_snapshot_is_identical_across_compaction() {
    let mut store = RecordStore::new();
    let mut index = InvertedIndex::new();
    let mut queue: EvictionQueue<Slot> = EvictionQueue::new();
    for id in 0..2000u64 {
        let r = rec(id, &[(id % 50) as u32, 60 + (id % 40) as u32, 200]);
        let slot = store.insert(&r);
        index_all(&mut index, slot, &r);
        queue.push(id, id, slot);
    }
    // Keep only the last ~300 alive: dead (1700) > 1024 and > live.
    let store_ref = &mut store;
    queue.drain_expired(Window::Count(300), 1999, 1999, |slot| {
        store_ref.remove(slot);
    });
    assert!(should_compact(store.live(), store.dead()));

    let snap = |store: &RecordStore, queue: &EvictionQueue<Slot>| -> Vec<SnapshotEntry> {
        queue
            .iter()
            .map(|&slot| (None, store.to_record(slot)))
            .collect()
    };
    let before = snap(&store, &queue);
    let bytes_before = encode_window_vec(&before).unwrap();
    compact_all(&mut store, &mut index, &mut queue);
    let after = snap(&store, &queue);
    let bytes_after = encode_window_vec(&after).unwrap();
    assert_eq!(before.len(), 301, "ids 1699..=1999 stay in-window");
    assert_eq!(
        bytes_before, bytes_after,
        "a snapshot must not reveal whether compaction ran"
    );
}

#[test]
fn compaction_threshold_requires_both_volume_and_majority() {
    assert!(!should_compact(0, 1024), "volume floor not met");
    assert!(!should_compact(2000, 1500), "dead must outnumber live");
    assert!(should_compact(1000, 1025));
    assert!(should_compact(0, 1025));
}
