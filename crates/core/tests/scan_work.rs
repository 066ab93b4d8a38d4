//! Pinned work vectors: what each indexed joiner does on fixed-seed
//! streams must stay identical from commit to commit, not just from run
//! to run.
//!
//! A change to how a joiner *reaches* its data — prefetch hints, the
//! layout of its scratch maps, the order it touches memory in — changes no
//! result, so only counters can show that it also changed no decision.
//! Each pin is the counter vector of one `run_stream` of 2 000 records of
//! one dataset profile, at the benchmark's threshold for that profile and
//! under a `Count` window short enough that records are evicted and their
//! slots reused, plus an FNV-1a digest of the emitted
//! `(earlier, later, similarity bits)` sequence in emit order. A counter
//! that moves means a filter, a candidate or a verification moved; a
//! digest that moves means a pair, a similarity or the emit order did.
//!
//! After an *intentional* change to what a joiner scans or verifies, print
//! fresh values with
//!
//! ```text
//! cargo test -p ssj-core --test scan_work print -- --ignored --nocapture
//! ```
//!
//! and review the change like any other golden-file diff.

use ssj_core::join::run_stream;
use ssj_core::{
    AllPairsJoiner, BundleJoiner, JoinConfig, JoinStats, MatchPair, PpJoinJoiner, StreamJoiner,
    Window,
};
use ssj_workloads::{DatasetProfile, StreamGenerator};

const SEED: u64 = 7;
const N: usize = 2_000;
/// Short enough that three quarters of each stream is evicted, so the
/// stores reuse slots and the indexes unpost.
const WINDOW: Window = Window::Count(500);

/// The pinned counters, in [`Work::of`]'s order, then the pair digest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Work {
    posting_hits: u64,
    candidates: u64,
    length_filtered: u64,
    position_filtered: u64,
    verifications: u64,
    verify_steps: u64,
    delta_verifications: u64,
    results: u64,
    evicted: u64,
    digest: u64,
}

impl Work {
    fn of(s: &JoinStats, pairs: &[MatchPair]) -> Self {
        Self {
            posting_hits: s.posting_hits,
            candidates: s.candidates,
            length_filtered: s.length_filtered,
            position_filtered: s.position_filtered,
            verifications: s.verifications,
            verify_steps: s.verify_steps,
            delta_verifications: s.delta_verifications,
            results: s.results,
            evicted: s.evicted,
            digest: digest(pairs),
        }
    }
}

/// FNV-1a over each pair's `earlier`, `later` and similarity bits, in emit
/// order.
fn digest(pairs: &[MatchPair]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for m in pairs {
        for word in [m.earlier.0, m.later.0, m.similarity.to_bits()] {
            for byte in word.to_le_bytes() {
                h ^= u64::from(byte);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    h
}

/// A profile's name, its stream generator settings and the benchmark's
/// threshold for it.
type Profile = (&'static str, fn() -> DatasetProfile, f64);

const PROFILES: [Profile; 3] = [
    ("tweet", DatasetProfile::tweet, 0.8),
    ("enron", DatasetProfile::enron, 0.6),
    ("aol", DatasetProfile::aol, 0.8),
];

const ALGOS: [&str; 3] = ["bundle", "ppjoin", "allpairs"];

fn joiner(algo: &str, join: JoinConfig) -> Box<dyn StreamJoiner> {
    match algo {
        "bundle" => Box::new(BundleJoiner::with_defaults(join)),
        "ppjoin" => Box::new(PpJoinJoiner::new(join)),
        "allpairs" => Box::new(AllPairsJoiner::new(join)),
        other => unreachable!("no joiner {other}"),
    }
}

/// `(profile, algorithm, work)` of every pinned run.
fn measure() -> Vec<(&'static str, &'static str, Work)> {
    let mut all = Vec::new();
    for (profile, make, tau) in PROFILES {
        let records = StreamGenerator::new(make(), SEED).take_records(N);
        let join = JoinConfig::jaccard(tau).with_window(WINDOW);
        for algo in ALGOS {
            let mut j = joiner(algo, join);
            let pairs = run_stream(j.as_mut(), &records);
            all.push((profile, algo, Work::of(j.stats(), &pairs)));
        }
    }
    all
}

const fn w(c: [u64; 9], digest: u64) -> Work {
    Work {
        posting_hits: c[0],
        candidates: c[1],
        length_filtered: c[2],
        position_filtered: c[3],
        verifications: c[4],
        verify_steps: c[5],
        delta_verifications: c[6],
        results: c[7],
        evicted: c[8],
        digest,
    }
}

/// `(profile, algorithm, work)`; counters in [`Work`]'s field order.
#[rustfmt::skip]
const PINS: &[(&str, &str, Work)] = &[
    ("tweet", "bundle", w([1235, 693, 232, 88, 373, 5963, 436, 412, 1499], 0xebbc6af236f884de)),
    ("tweet", "ppjoin", w([1570, 870, 288, 105, 477, 7812, 0, 412, 1499], 0x9e520e57608b5292)),
    ("tweet", "allpairs", w([1570, 870, 288, 0, 582, 12502, 0, 412, 1499], 0x9e520e57608b5292)),
    ("enron", "bundle", w([22321, 15687, 9229, 5315, 1143, 288556, 173, 173, 1499], 0xa575e6fbfdec3e3d)),
    ("enron", "ppjoin", w([24417, 16525, 9704, 5604, 1217, 305822, 0, 173, 1499], 0xa575e6fbfdec3e3d)),
    ("enron", "allpairs", w([24417, 16525, 9704, 0, 6821, 2082439, 0, 173, 1499], 0xa575e6fbfdec3e3d)),
    ("aol", "bundle", w([611, 533, 201, 2, 330, 1605, 497, 486, 1499], 0xdd4924d466681abe)),
    ("aol", "ppjoin", w([883, 782, 246, 4, 532, 2219, 0, 486, 1499], 0x3cf3911accd1d812)),
    ("aol", "allpairs", w([883, 782, 246, 0, 536, 3555, 0, 486, 1499], 0x3cf3911accd1d812)),
];

#[test]
fn work_vectors_match_the_pinned_constants() {
    let got = measure();
    assert_eq!(got.len(), PINS.len());
    for ((profile, algo, work), &(pin_profile, pin_algo, pin)) in got.into_iter().zip(PINS) {
        assert_eq!((profile, algo), (pin_profile, pin_algo));
        assert_eq!(
            work, pin,
            "{profile}/{algo}: the joiner's work changed — if that is intentional, \
             re-pin with the `print` test (see the module docs)"
        );
    }
}

/// The pins exercise what they are there for: every stream evicts, every
/// filter fires somewhere, and every profile emits pairs.
#[test]
fn the_pinned_runs_evict_filter_and_match() {
    for &(profile, algo, w) in PINS {
        assert!(w.evicted > 0, "{profile}/{algo}");
        assert!(w.results > 0, "{profile}/{algo}");
        assert!(w.verifications > 0, "{profile}/{algo}");
    }
    let any = |f: fn(&Work) -> bool| PINS.iter().any(|(_, _, w)| f(w));
    assert!(any(|w| w.length_filtered > 0));
    assert!(any(|w| w.position_filtered > 0));
    assert!(any(|w| w.delta_verifications > 0));
}

#[test]
#[ignore = "prints fresh work vectors for re-pinning after an intentional change"]
fn print() {
    for (profile, algo, w) in measure() {
        println!(
            "    (\"{profile}\", \"{algo}\", w([{}, {}, {}, {}, {}, {}, {}, {}, {}], {:#018x})),",
            w.posting_hits,
            w.candidates,
            w.length_filtered,
            w.position_filtered,
            w.verifications,
            w.verify_steps,
            w.delta_verifications,
            w.results,
            w.evicted,
            w.digest
        );
    }
}
