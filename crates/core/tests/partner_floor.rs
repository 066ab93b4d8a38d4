//! Each indexed joiner probes with the prefix its shortest stored record
//! needs, and that is exact.
//!
//! A record of length `l` that matches a stored record `s` shares with it
//! a token among its first `pair_prefix_len(l, |s|)`. `min_overlap` is
//! nondecreasing in the partner length, so when every stored record is at
//! least `floor` long, `pair_prefix_len(l, floor)` covers every stored
//! partner at once — shorter than the streaming prefix, which is sized for
//! the shortest partner `l` admits at all. The joiners keep `floor` as the
//! shortest length they have ever stored; the index side still posts the
//! full streaming prefix. Pinned here: the bound itself, exactness against
//! the naive join on indexes of long records probed by every shorter
//! admissible length, and the exact posting lists a probe touches.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use ssj_core::join::bistream::{run_bistream, BiStreamJoiner, Side};
use ssj_core::join::run_stream;
use ssj_core::sim::ProbeBounds;
use ssj_core::{
    AllPairsJoiner, BundleConfig, BundleJoiner, JoinConfig, MatchPair, NaiveJoiner, PpJoinJoiner,
    SimFn, StreamJoiner, Threshold, Window,
};
use ssj_text::{Record, RecordId, TokenId};

const SIMS: [SimFn; 4] = [SimFn::Jaccard, SimFn::Cosine, SimFn::Dice, SimFn::Overlap];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `probe_prefix_len(floor)` is the streaming prefix up to `min_len`,
    /// nothing past `max_len`, and in between the pair prefix of `floor` —
    /// which covers the pair prefix of every admissible longer partner.
    #[test]
    fn the_probe_prefix_is_the_pair_prefix_of_the_floor(
        sim_idx in 0usize..4,
        tau in 0.5f64..=0.95,
        l in 1usize..=300,
    ) {
        let t = Threshold::new(SIMS[sim_idx], tau);
        let mut bounds = ProbeBounds::new(t);
        bounds.rebuild(l);
        for floor in 1..=400 {
            let got = bounds.probe_prefix_len(floor);
            if floor <= t.min_len(l) {
                prop_assert_eq!(got, t.prefix_len(l), "l {} floor {}", l, floor);
            } else if t.max_len(l).is_some_and(|hi| floor > hi) {
                prop_assert_eq!(got, 0, "l {} floor {}", l, floor);
            } else {
                prop_assert_eq!(got, t.pair_prefix_len(l, floor), "l {} floor {}", l, floor);
                for ls in (floor..=400).filter(|&ls| t.length_compatible(l, ls)) {
                    prop_assert!(
                        got >= t.pair_prefix_len(l, ls),
                        "l {} floor {} partner {}", l, floor, ls
                    );
                }
            }
        }
        // A joiner that has stored nothing scans nothing.
        prop_assert_eq!(bounds.probe_prefix_len(usize::MAX), 0);
    }
}

/// Length of the shortest long record; long records have 20–24 tokens.
const LONG_MIN: usize = 20;
const LONG_MAX: usize = 24;
const N: u64 = 240;
/// Count window: a record stays stored for this many later arrivals.
const WINDOW: u64 = 40;
/// Arrivals `[start, end)` of the two bursts of short records.
const BURSTS: [(u64, u64); 2] = [(60, 100), (160, 200)];
/// Snapshot → restore point: after the first burst has expired, before
/// the second begins, so the restored joiner's window is long records
/// only while the original's floor is still the first burst's shortest.
const CUT: u64 = 150;

/// Every length shorter than the long records that some long record
/// admits as a partner.
fn shorter_admissible(t: Threshold) -> Vec<usize> {
    (1..LONG_MIN)
        .filter(|&l| (LONG_MIN..=LONG_MAX).any(|ls| t.length_compatible(l, ls)))
        .collect()
}

/// `n` records from four near-duplicate families of 24 tokens. Outside
/// the bursts every record is long: its family's base with up to four
/// tokens deleted and one substituted. Inside a burst every other record
/// is a short one, cycling through `shorts` from the shortest up: the
/// base cut down to that length, deletions biased to the front so the
/// short record's prefix is not the base's.
fn stream(seed: u64, shorts: &[usize]) -> Vec<Record> {
    let mut rng = StdRng::seed_from_u64(seed);
    let bases: Vec<Vec<u32>> = (0..4u32)
        .map(|f| (0..LONG_MAX as u32).map(|i| f * 7 + i * 5).collect())
        .collect();
    let mut next_short = 0;
    (0..N)
        .map(|id| {
            let mut toks = bases[rng.random_range(0..bases.len())].clone();
            let in_burst = BURSTS.iter().any(|&(a, b)| (a..b).contains(&id));
            let target = if in_burst && id % 2 == 0 && !shorts.is_empty() {
                let l = shorts[next_short];
                next_short = (next_short + 1) % shorts.len();
                l
            } else {
                LONG_MAX - rng.random_range(0..=(LONG_MAX - LONG_MIN))
            };
            while toks.len() > target {
                let at = if rng.random_range(0..3u32) > 0 {
                    rng.random_range(0..toks.len().div_ceil(3))
                } else {
                    rng.random_range(0..toks.len())
                };
                toks.remove(at);
            }
            if rng.random_range(0..2u32) == 0 {
                let at = rng.random_range(0..toks.len());
                toks[at] = 1_000 + rng.random_range(0..50u32);
                toks.sort_unstable();
                toks.dedup();
            }
            Record::from_sorted(RecordId(id), id, toks.into_iter().map(TokenId).collect())
        })
        .collect()
}

fn sorted(pairs: &[MatchPair]) -> Vec<(u64, u64, u64)> {
    let mut keys: Vec<_> = pairs
        .iter()
        .map(|m| (m.earlier.0, m.later.0, m.similarity.to_bits()))
        .collect();
    keys.sort_unstable();
    keys
}

/// The pairs of a whole run of `make()`, and of a run that is
/// snapshotted at [`CUT`] and continued by a freshly restored joiner.
fn straight_and_restored<J: StreamJoiner>(
    make: impl Fn() -> J,
    records: &[Record],
) -> (Vec<MatchPair>, Vec<MatchPair>) {
    let (head, tail) = records.split_at(CUT as usize);
    let mut original = make();
    let mut pairs = run_stream(&mut original, head);
    let mut restored = make();
    restored.restore(&original.window_snapshot());
    let mut restored_pairs = pairs.clone();
    restored_pairs.extend(run_stream(&mut restored, tail));
    pairs.extend(run_stream(&mut original, tail));
    (pairs, restored_pairs)
}

/// [`straight_and_restored`] for a bi-stream joiner; sides alternate.
fn bistream_straight_and_restored<J: StreamJoiner>(
    make: impl Fn() -> J,
    arrivals: &[(Side, Record)],
) -> (Vec<MatchPair>, Vec<MatchPair>) {
    let (head, tail) = arrivals.split_at(CUT as usize);
    let mut original = BiStreamJoiner::new(&make);
    let mut pairs = run_bistream(&mut original, head);
    let mut restored = BiStreamJoiner::new(&make);
    for (side, r) in original.window_snapshot() {
        restored.insert(side, &r);
    }
    let mut restored_pairs = pairs.clone();
    restored_pairs.extend(run_bistream(&mut restored, tail));
    pairs.extend(run_bistream(&mut original, tail));
    (pairs, restored_pairs)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Indexes of long records probed by every shorter admissible length,
    /// across a window that expires the shortest stored record and a
    /// restore whose window holds long records only: every joiner equals
    /// the naive join pair for pair, similarity included.
    #[test]
    fn long_indexes_probed_by_every_shorter_length_equal_naive(
        seed in 0u64..1_000_000,
        sim_idx in 0usize..4,
        tau in 0.5f64..=0.95,
    ) {
        let t = Threshold::new(SIMS[sim_idx], tau);
        let join = JoinConfig { threshold: t, window: Window::Count(WINDOW) };
        let shorts = shorter_admissible(t);
        let records = stream(seed, &shorts);
        // The stream is what this test is about: long records only until
        // the first burst, every shorter admissible length inside it, and
        // the burst's records expired before the cut.
        let lengths: Vec<usize> = records.iter().map(Record::len).collect();
        prop_assert!(lengths[..BURSTS[0].0 as usize].iter().all(|&l| l >= LONG_MIN));
        for l in &shorts {
            prop_assert!(lengths.contains(l), "length {} never probes", l);
        }
        prop_assert!(BURSTS[0].1 + WINDOW <= CUT);

        let expect = sorted(&run_stream(&mut NaiveJoiner::new(join), &records));
        let check = |name: &str, (straight, restored): (Vec<MatchPair>, Vec<MatchPair>)| {
            prop_assert_eq!(sorted(&straight), expect, "{}", name);
            prop_assert_eq!(sorted(&restored), expect, "{} restored", name);
            Ok(())
        };
        check("allpairs", straight_and_restored(|| AllPairsJoiner::new(join), &records))?;
        check("ppjoin", straight_and_restored(|| PpJoinJoiner::new(join), &records))?;
        // Absorption below and above τ; a member cap that splits families
        // and one that does not.
        for bundle_tau in [tau * 0.75, (tau + 1.0) / 2.0] {
            for max_members in [2, 64] {
                let cfg = BundleConfig::new(join)
                    .with_bundle_tau(bundle_tau)
                    .with_max_members(max_members);
                check(
                    &format!("bundle tau {bundle_tau} cap {max_members}"),
                    straight_and_restored(|| BundleJoiner::new(cfg), &records),
                )?;
            }
        }

        let arrivals: Vec<(Side, Record)> = records
            .iter()
            .map(|r| (if r.id().0 % 2 == 0 { Side::Left } else { Side::Right }, r.clone()))
            .collect();
        let mut naive = BiStreamJoiner::new(|| NaiveJoiner::new(join));
        let expect = sorted(&run_bistream(&mut naive, &arrivals));
        let (straight, restored) = bistream_straight_and_restored(
            || BundleJoiner::with_defaults(join),
            &arrivals,
        );
        prop_assert_eq!(sorted(&straight), expect, "bistream bundle");
        prop_assert_eq!(sorted(&restored), expect, "bistream bundle restored");
    }
}

fn rec(id: u64, toks: &[u32]) -> Record {
    Record::from_sorted(
        RecordId(id),
        id,
        toks.iter().copied().map(TokenId).collect(),
    )
}

/// A member shorter than its founder lowers the bundle joiner's floor:
/// sized for the 10-token founder, the 9-token probe's prefix would be
/// its first token only, which neither stored record has; sized for the
/// 9-token member it reaches 11, through which the probe matches the
/// member (8 of 10 tokens) but not the founder (8 of 11).
#[test]
fn an_absorbed_member_lowers_the_floor_like_a_founder() {
    let join = JoinConfig::jaccard(0.8);
    let t = join.threshold;
    assert_eq!((t.pair_prefix_len(9, 10), t.pair_prefix_len(9, 9)), (1, 2));
    let records = [
        rec(0, &[10, 11, 12, 13, 14, 15, 16, 17, 18, 19]),
        rec(1, &[11, 12, 13, 14, 15, 16, 17, 18, 19]),
        rec(2, &[5, 11, 12, 13, 14, 15, 16, 17, 18]),
    ];
    let mut bundle = BundleJoiner::with_defaults(join);
    let pairs = run_stream(&mut bundle, &records);
    assert_eq!(bundle.stats().bundle_absorbed, 1, "record 1 is a member");
    assert_eq!(
        sorted(&pairs),
        sorted(&run_stream(&mut NaiveJoiner::new(join), &records))
    );
    assert_eq!(
        pairs.iter().map(|m| m.key()).collect::<Vec<_>>(),
        [(0, 1), (1, 2)]
    );
}

/// Ten tokens: `first`, two tokens of its own and seven filler tokens,
/// all above the probe's.
fn ten(id: u64, first: u32) -> Record {
    let own = 10 + 10 * id as u32;
    let mut toks = vec![first, own, own + 1];
    toks.extend((0..7).map(|i| 1_000 + 10 * id as u32 + i));
    rec(id, &toks)
}

/// Posting hits of one probe by `record`.
fn hits_of(j: &mut dyn StreamJoiner, record: &Record) -> u64 {
    let before = j.stats().posting_hits;
    let mut out = Vec::new();
    j.probe(record, &mut out);
    assert!(out.is_empty());
    j.stats().posting_hits - before
}

/// At τ = 0.8 a length-8 probe needs one prefix token against an index of
/// length-10 records, and its full streaming prefix of two once a record
/// of its shortest partner length, 7, is stored (a stored length 8 would
/// not do: its pair prefix is 1 too). The stored records post the probe's
/// first token twice and its second three times, so the hit count says
/// exactly which posting lists the probe read.
#[test]
fn a_probe_reads_the_posting_lists_its_shortest_stored_partner_needs() {
    let join = JoinConfig::jaccard(0.8);
    let t = join.threshold;
    assert_eq!(t.pair_prefix_len(8, 10), 1);
    assert_eq!(t.pair_prefix_len(8, 8), 1);
    assert_eq!((t.min_len(8), t.prefix_len(8)), (7, 2));
    assert_eq!(t.prefix_len(10), 3, "a stored record posts its first three");
    let joiners: [(&str, Box<dyn StreamJoiner + Send>); 3] = [
        ("bundle", Box::new(BundleJoiner::with_defaults(join))),
        ("ppjoin", Box::new(PpJoinJoiner::new(join))),
        ("allpairs", Box::new(AllPairsJoiner::new(join))),
    ];
    for (name, mut j) in joiners {
        let probe = |id| rec(id, &[1, 2, 500, 501, 502, 503, 504, 505]);
        assert_eq!(hits_of(j.as_mut(), &probe(0)), 0, "{name}: empty index");
        for (id, first) in [(1, 1), (2, 1), (3, 2), (4, 2), (5, 2)] {
            j.insert(&ten(id, first));
        }
        assert_eq!(j.stored(), 5, "{name}: no two stored records group");
        assert_eq!(hits_of(j.as_mut(), &probe(6)), 2, "{name}: token 1 only");
        j.insert(&rec(7, &[600, 601, 602, 603, 604, 605, 606, 607]));
        assert_eq!(
            hits_of(j.as_mut(), &probe(8)),
            2,
            "{name}: a length 8 is not enough"
        );
        j.insert(&rec(9, &[700, 701, 702, 703, 704, 705, 706]));
        assert_eq!(
            hits_of(j.as_mut(), &probe(10)),
            2 + 3,
            "{name}: tokens 1 and 2"
        );
    }
}
