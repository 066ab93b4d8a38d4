//! Differential tests of every verification kernel against an independent
//! naive oracle.
//!
//! The verify module's contract: a kernel returns `Some(exact)` iff the
//! exact intersection size (plus any accumulator) reaches `min_required`,
//! else `None` — the *outcome* depends only on the operands, never on the
//! kernel chosen. Here both kernels (merge, and SIMD on x86-64) and every
//! public entry point are checked against a tree-set intersection over
//! adversarial shapes and proptest-generated sets.

use proptest::prelude::*;
use ssj_core::verify;
use ssj_text::TokenId;
use std::collections::BTreeSet;

fn toks(xs: &[u32]) -> Vec<TokenId> {
    assert!(xs.windows(2).all(|w| w[0] < w[1]), "fixture must ascend");
    xs.iter().copied().map(TokenId).collect()
}

/// The oracle: an intersection count no kernel shares code with.
fn naive(a: &[TokenId], b: &[TokenId]) -> usize {
    let sa: BTreeSet<u32> = a.iter().map(|t| t.0).collect();
    b.iter().filter(|t| sa.contains(&t.0)).count()
}

/// The shared kernel signature: `(a, b, acc, min_required)`.
type Kernel = fn(&[TokenId], &[TokenId], usize, usize) -> Option<usize>;

/// Every kernel, by name.
fn kernels() -> Vec<(&'static str, Kernel)> {
    let mut v: Vec<(&'static str, Kernel)> = vec![("merge", verify::overlap_merge)];
    #[cfg(target_arch = "x86_64")]
    v.push(("simd", verify::overlap_simd));
    v
}

/// Asserts the full contract for one operand pair: for every kernel, every
/// accumulator offset, and a sweep of `min_required` values around the
/// exact answer, the result is `Some(acc + exact)` iff that sum reaches
/// the requirement.
fn assert_contract(a: &[TokenId], b: &[TokenId]) {
    let exact = naive(a, b);
    for (name, kernel) in kernels() {
        for acc in [0usize, 1, 7] {
            let total = acc + exact;
            for min in [
                0,
                1,
                total.saturating_sub(1),
                total,
                total + 1,
                total + 100,
                a.len() + b.len() + acc,
            ] {
                let got = kernel(a, b, acc, min);
                let want = if total >= min { Some(total) } else { None };
                assert_eq!(
                    got,
                    want,
                    "kernel={name} |a|={} |b|={} acc={acc} min={min} exact={exact}",
                    a.len(),
                    b.len()
                );
            }
        }
    }
    // The dispatching entry points obey the same contract at acc = 0.
    assert_eq!(verify::overlap(a, b), exact);
    assert_eq!(verify::overlap_with_min(a, b, exact), Some(exact));
    assert_eq!(verify::overlap_with_min(a, b, exact + 1), None);
}

#[test]
fn empty_and_singleton_shapes() {
    let e: Vec<TokenId> = Vec::new();
    assert_contract(&e, &e);
    assert_contract(&e, &toks(&[5]));
    assert_contract(&toks(&[5]), &e);
    assert_contract(&toks(&[5]), &toks(&[5]));
    assert_contract(&toks(&[5]), &toks(&[6]));
    assert_contract(&toks(&[5]), &toks(&[0, 1, 2, 3, 4, 6, 7]));
}

#[test]
fn disjoint_interleaved_and_identical() {
    let evens = toks(&[0, 2, 4, 6, 8, 10, 12, 14, 16, 18]);
    let odds = toks(&[1, 3, 5, 7, 9, 11, 13, 15, 17, 19]);
    assert_contract(&evens, &odds);
    assert_contract(&evens, &evens);
    // Disjoint ranges: one side exhausts immediately.
    assert_contract(&toks(&[1, 2, 3]), &toks(&[100, 200, 300]));
}

#[test]
fn single_common_token_at_each_end() {
    let a = toks(&[10, 20, 30, 40, 50, 60, 70, 80]);
    assert_contract(&a, &toks(&[10, 11, 12, 13, 14, 15, 16, 17]));
    assert_contract(&a, &toks(&[73, 74, 75, 76, 77, 78, 79, 80]));
    assert_contract(&a, &toks(&[9, 41, 42, 43, 44, 45, 46, 81]));
}

#[test]
fn lengths_straddling_the_simd_lane_width() {
    // 1..=9 on each side crosses the 4-lane block boundary both ways and
    // exercises every scalar-tail length.
    for n in 1u32..=9 {
        for m in 1u32..=9 {
            let a: Vec<TokenId> = (0..n).map(|i| TokenId(i * 3)).collect();
            let b: Vec<TokenId> = (0..m).map(|i| TokenId(i * 2 + 1)).collect();
            assert_contract(&a, &b);
        }
    }
}

#[test]
fn skewed_length_ratios() {
    // m/n around 8 and 32: one side runs out of blocks while the other has
    // dozens left, so the SIMD kernel's block loop ends early and its
    // scalar tail does the rest.
    let r = 8u32;
    for n in [1u32, 2, 5] {
        for m in [n * r - 1, n * r, n * r + 1, n * r * 4] {
            let a: Vec<TokenId> = (0..n).map(|i| TokenId(i * 97)).collect();
            let b: Vec<TokenId> = (0..m).map(|i| TokenId(i * 13 + 1)).collect();
            assert_contract(&a, &b);
            let shared: Vec<TokenId> = (0..n).map(|i| TokenId(i * 13 + 1)).collect();
            assert_contract(&shared, &b);
        }
    }
}

#[test]
fn dense_and_sparse_id_ranges() {
    // Runs of consecutive ids (several matches per 4-lane block), sparse
    // ids (stride 1000, at most one), and one of each.
    assert_contract(
        &toks(&[62, 63, 64, 65, 126, 127, 128, 129]),
        &toks(&[63, 64, 127, 128, 191, 192]),
    );
    let sparse_a: Vec<TokenId> = (0..20).map(|i| TokenId(i * 1000)).collect();
    let sparse_b: Vec<TokenId> = (0..20).map(|i| TokenId(i * 1500)).collect();
    assert_contract(&sparse_a, &sparse_b);
    // One dense side, one sparse side.
    let dense: Vec<TokenId> = (0..64).map(TokenId).collect();
    assert_contract(&dense, &sparse_a);
}

#[test]
fn resumed_verification_matches_the_full_intersection() {
    let a = toks(&[1, 4, 9, 16, 25, 36, 49, 64, 81, 100]);
    let b = toks(&[1, 2, 4, 8, 16, 32, 64, 100]);
    let exact = naive(&a, &b);
    for start_a in 0..=a.len() {
        for start_b in 0..=b.len() {
            let prefix = naive(&a[..start_a], &b[..start_b]);
            // Only splits where the prefix regions fully contain each
            // other's matches resume correctly; emulate PPJoin's use: both
            // cursors sit past the same watermark token.
            if a[..start_a].last().map(|t| t.0) != b[..start_b].last().map(|t| t.0) {
                continue;
            }
            let rest = verify::overlap_from(&a, &b, start_a, start_b, prefix, 0)
                .expect("min 0 never aborts");
            assert_eq!(rest, exact, "split at ({start_a}, {start_b})");
        }
    }
}

fn sorted_set(max: u32, len: usize) -> impl Strategy<Value = Vec<TokenId>> {
    proptest::collection::btree_set(0..max, 0..len)
        .prop_map(|s| s.into_iter().map(TokenId).collect())
}

proptest! {
    /// Sparse universe: few matches, most blocks skipped without one.
    #[test]
    fn kernels_agree_on_sparse_sets(
        a in sorted_set(100_000, 120),
        b in sorted_set(100_000, 120),
        min in 0usize..16,
    ) {
        let exact = naive(&a, &b);
        let want = if exact >= min { Some(exact) } else { None };
        for (name, kernel) in kernels() {
            prop_assert_eq!(kernel(&a, &b, 0, min), want, "kernel={}", name);
        }
        prop_assert_eq!(verify::overlap_with_min(&a, &b, min), want);
    }

    /// Dense universe: heavy overlap, long shared blocks, every id range
    /// packed — several matches per SIMD block.
    #[test]
    fn kernels_agree_on_dense_sets(
        a in sorted_set(300, 150),
        b in sorted_set(300, 150),
        min in 0usize..40,
    ) {
        let exact = naive(&a, &b);
        let want = if exact >= min { Some(exact) } else { None };
        for (name, kernel) in kernels() {
            prop_assert_eq!(kernel(&a, &b, 0, min), want, "kernel={}", name);
        }
        prop_assert_eq!(verify::overlap(&a, &b), exact);
    }

    /// Skewed lengths: a handful of tokens against hundreds, both
    /// orientations.
    #[test]
    fn kernels_agree_on_skewed_sets(
        a in sorted_set(5_000, 8),
        b in sorted_set(5_000, 400),
        min in 0usize..8,
    ) {
        let exact = naive(&a, &b);
        let want = if exact >= min { Some(exact) } else { None };
        for (name, kernel) in kernels() {
            prop_assert_eq!(kernel(&a, &b, 0, min), want, "kernel={}", name);
            prop_assert_eq!(kernel(&b, &a, 0, min), want, "kernel={} flipped", name);
        }
    }

    /// `intersect_small` (the bundle delta path) agrees with the oracle.
    #[test]
    fn intersect_small_agrees(
        small in sorted_set(2_000, 6),
        big in sorted_set(2_000, 200),
    ) {
        prop_assert_eq!(verify::intersect_small(&small, &big), naive(&small, &big));
    }
}
