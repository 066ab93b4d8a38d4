//! Intersection-size computation: the verification stage of the join.
//!
//! The public entry points cover the joiners' needs:
//!
//! * [`overlap`] — exact intersection size, used by the naive joiner;
//! * [`overlap_with_min`] — intersection with the classic *early
//!   termination* bound: if the tokens remaining on either side cannot lift
//!   the running overlap to the requirement, verification aborts;
//! * [`overlap_from`] — resumes after known prefix positions with an
//!   already-accumulated overlap (PPJoin-style verification);
//! * [`intersect_small`] — asymmetric intersection of a tiny sorted slice
//!   against a large one (binary search per element), used by bundle batch
//!   verification to apply per-member token deltas.
//!
//! Under the hood every entry point routes through one of two exact
//! **kernels**, selected by platform only:
//!
//! * [`overlap_simd`] — SSE2 block intersection (4 lanes of `a` against
//!   all rotations of 4 lanes of `b`), the path taken on `x86_64`;
//! * [`overlap_merge`] — the plain sorted-merge: the portable path, and the
//!   oracle the SIMD kernel is differentially tested against
//!   (`tests/verify_kernels.rs`).
//!
//! Both honour the same contract: `Some(exact)` iff the exact intersection
//! size reaches `min_required`, else `None`. The *outcome* therefore
//! depends only on the operands, never on the kernel — early termination
//! merely decides how soon a `None` is known. Both are `O(n + m)`; the
//! length filter bounds `m / n` of every verified pair by `1/τ` (Jaccard),
//! so no workload has a shape where a sub-linear kernel would pay (DESIGN
//! §12 has the census).

use ssj_text::TokenId;

#[inline]
fn finish(o: usize, min_required: usize) -> Option<usize> {
    if o >= min_required {
        Some(o)
    } else {
        None
    }
}

/// Exact `|a ∩ b|` of two strictly ascending token slices.
#[inline]
pub fn overlap(a: &[TokenId], b: &[TokenId]) -> usize {
    match dispatch(a, b, 0, 0) {
        Some(o) => o,
        None => unreachable!("min_required = 0 never aborts"),
    }
}

/// `|a ∩ b|` if it reaches `min_required`, else `None` (early termination).
#[inline]
pub fn overlap_with_min(a: &[TokenId], b: &[TokenId], min_required: usize) -> Option<usize> {
    dispatch(a, b, 0, min_required)
}

/// Resumes an intersection of `a[start_a..]` with `b[start_b..]`, starting
/// from an already-known overlap `acc`, early-terminating against
/// `min_required` (`0` disables termination and yields the exact total).
#[inline]
pub fn overlap_from(
    a: &[TokenId],
    b: &[TokenId],
    start_a: usize,
    start_b: usize,
    acc: usize,
    min_required: usize,
) -> Option<usize> {
    let a = &a[start_a.min(a.len())..];
    let b = &b[start_b.min(b.len())..];
    dispatch(a, b, acc, min_required)
}

/// Kernel selection, by platform only: SSE2 is part of the x86-64
/// baseline, everything else takes the scalar merge.
#[inline]
fn dispatch(a: &[TokenId], b: &[TokenId], acc: usize, min_required: usize) -> Option<usize> {
    #[cfg(target_arch = "x86_64")]
    return overlap_simd(a, b, acc, min_required);
    #[cfg(not(target_arch = "x86_64"))]
    overlap_merge(a, b, acc, min_required)
}

/// The plain sorted-merge kernel (and the oracle for [`overlap_simd`]):
/// `acc + |a ∩ b|` if it reaches `min_required`, else `None`.
pub fn overlap_merge(
    a: &[TokenId],
    b: &[TokenId],
    acc: usize,
    min_required: usize,
) -> Option<usize> {
    let (n, m) = (a.len(), b.len());
    let mut i = 0;
    let mut j = 0;
    let mut o = acc;
    while i < n && j < m {
        // Upper bound on the final overlap; shrinks as we consume tokens
        // without matching. Checked once per block of branchless steps —
        // a bound that held 8 steps ago is at most 8 too optimistic, and
        // the comparisons themselves run without mispredictable branches.
        let remaining = (n - i).min(m - j);
        if o + remaining < min_required {
            return None;
        }
        // `remaining` steps can never run either cursor past its end (a
        // step advances at least one cursor, and a cursor advances at most
        // once per step), so this inner block needs no bounds re-checks.
        for _ in 0..remaining.min(8) {
            let x = a[i];
            let y = b[j];
            o += usize::from(x == y);
            i += usize::from(x <= y);
            j += usize::from(y <= x);
        }
    }
    finish(o, min_required)
}

/// Word-parallel merge kernel (SSE2, the x86-64 baseline): compares a
/// 4-lane block of `a` against all four rotations of a 4-lane block of
/// `b` — 16 comparisons in 4 instructions — then advances blocks
/// merge-style on their maximum elements. Tokens are strictly ascending
/// within each slice, so a common value occupies exactly one lane pair
/// and each block pair is visited at most once: every match is counted
/// exactly once. Equality compares are sign-agnostic, so reinterpreting
/// the `u32` ids as `i32` lanes is harmless. Same `Some`/`None` contract
/// as the scalar merge, with the early-termination bound checked once
/// per block.
#[cfg(target_arch = "x86_64")]
pub fn overlap_simd(
    a: &[TokenId],
    b: &[TokenId],
    acc: usize,
    min_required: usize,
) -> Option<usize> {
    use std::arch::x86_64::*;
    let (n, m) = (a.len(), b.len());
    let mut i = 0;
    let mut j = 0;
    let mut o = acc;
    // SAFETY: `TokenId` is `#[repr(transparent)]` over `u32`, so the slice
    // memory is a valid run of 32-bit lanes; every unaligned 16-byte load
    // below is guarded by `i + 4 <= n` / `j + 4 <= m`. SSE2 is part of the
    // x86-64 baseline, so no runtime feature detection is needed.
    unsafe {
        let pa = a.as_ptr().cast::<i32>();
        let pb = b.as_ptr().cast::<i32>();
        while i + 4 <= n && j + 4 <= m {
            let remaining = (n - i).min(m - j);
            if o + remaining < min_required {
                return None;
            }
            let va = _mm_loadu_si128(pa.add(i).cast());
            let vb = _mm_loadu_si128(pb.add(j).cast());
            // `va` against `vb` and its three lane rotations: every lane of
            // `a` meets every lane of `b` exactly once.
            let e0 = _mm_cmpeq_epi32(va, vb);
            let e1 = _mm_cmpeq_epi32(va, _mm_shuffle_epi32(vb, 0b00_11_10_01));
            let e2 = _mm_cmpeq_epi32(va, _mm_shuffle_epi32(vb, 0b01_00_11_10));
            let e3 = _mm_cmpeq_epi32(va, _mm_shuffle_epi32(vb, 0b10_01_00_11));
            let eq = _mm_or_si128(_mm_or_si128(e0, e1), _mm_or_si128(e2, e3));
            let mask = _mm_movemask_ps(_mm_castsi128_ps(eq)) as u32;
            o += mask.count_ones() as usize;
            // Advance past whichever block's maximum is smaller (both on a
            // tie): the skipped block can no longer match anything ahead.
            let amax = a[i + 3];
            let bmax = b[j + 3];
            i += usize::from(amax <= bmax) * 4;
            j += usize::from(bmax <= amax) * 4;
        }
    }
    // Scalar branchless tail for the trailing < 4-lane remainders; same
    // bounds argument as `overlap_merge`.
    while i < n && j < m {
        let remaining = (n - i).min(m - j);
        if o + remaining < min_required {
            return None;
        }
        for _ in 0..remaining.min(8) {
            let x = a[i];
            let y = b[j];
            o += usize::from(x == y);
            i += usize::from(x <= y);
            j += usize::from(y <= x);
        }
    }
    finish(o, min_required)
}

/// `|small ∩ big|` where `small` is expected to be a handful of tokens:
/// binary-searches each element of `small` in `big`. `O(|small|·log|big|)`.
#[inline]
pub fn intersect_small(small: &[TokenId], big: &[TokenId]) -> usize {
    if small.is_empty() || big.is_empty() {
        return 0;
    }
    let mut count = 0;
    let mut lo = 0usize;
    for &t in small {
        // `small` is sorted too, so the search window only moves right.
        match big[lo..].binary_search(&t) {
            Ok(pos) => {
                count += 1;
                lo += pos + 1;
            }
            Err(pos) => lo += pos,
        }
        if lo >= big.len() {
            break;
        }
    }
    count
}

/// Recursion cap for [`hamming_lower_bound`]: deeper probing gives tighter
/// bounds at higher cost; 4 levels matches the PPJoin+ paper's sweet spot.
const SUFFIX_FILTER_MAX_DEPTH: usize = 4;

/// A lower bound on the Hamming distance `|x| + |y| − 2·|x ∩ y|` of two
/// strictly ascending token slices — the PPJoin+ *suffix filter* primitive.
///
/// The sets are recursively split around the median token of `y`; the
/// distance decomposes exactly across the split, and each side is bounded
/// from below by its size difference. Recursion aborts early once the
/// accumulated bound exceeds `hd_max` (the caller prunes in that case), so
/// the typical cost is logarithmic rather than linear.
pub fn hamming_lower_bound(x: &[TokenId], y: &[TokenId], hd_max: usize) -> usize {
    hamming_lb_rec(x, y, hd_max as isize, 0) as usize
}

fn hamming_lb_rec(x: &[TokenId], y: &[TokenId], hd_max: isize, depth: usize) -> isize {
    if depth >= SUFFIX_FILTER_MAX_DEPTH || x.is_empty() || y.is_empty() {
        return (x.len() as isize - y.len() as isize).abs();
    }
    let mid = y.len() / 2;
    let pivot = y[mid];
    let (yl, yr) = (&y[..mid], &y[mid + 1..]);
    let (xl, xr, shared) = match x.binary_search(&pivot) {
        Ok(p) => (&x[..p], &x[p + 1..], true),
        Err(p) => (&x[..p], &x[p..], false),
    };
    // The pivot itself contributes 0 if present in both, else 1.
    let pivot_diff = isize::from(!shared);
    let left_floor = (xl.len() as isize - yl.len() as isize).abs();
    let right_floor = (xr.len() as isize - yr.len() as isize).abs();
    if left_floor + right_floor + pivot_diff > hd_max {
        return left_floor + right_floor + pivot_diff;
    }
    let left = hamming_lb_rec(xl, yl, hd_max - right_floor - pivot_diff, depth + 1);
    if left + right_floor + pivot_diff > hd_max {
        return left + right_floor + pivot_diff;
    }
    let right = hamming_lb_rec(xr, yr, hd_max - left - pivot_diff, depth + 1);
    left + right + pivot_diff
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn tid(xs: &[u32]) -> Vec<TokenId> {
        xs.iter().copied().map(TokenId).collect()
    }

    #[test]
    fn overlap_basic() {
        assert_eq!(overlap(&tid(&[1, 3, 5]), &tid(&[2, 3, 5, 7])), 2);
        assert_eq!(overlap(&tid(&[1, 2]), &tid(&[3, 4])), 0);
        assert_eq!(overlap(&tid(&[]), &tid(&[1])), 0);
        assert_eq!(overlap(&tid(&[1, 2, 3]), &tid(&[1, 2, 3])), 3);
    }

    #[test]
    fn early_termination_triggers() {
        // Overlap is 1 but 3 required: must abort.
        assert_eq!(overlap_with_min(&tid(&[1, 9]), &tid(&[1, 2, 3]), 3), None);
        // Exactly reaching the requirement succeeds.
        assert_eq!(
            overlap_with_min(&tid(&[1, 2, 3]), &tid(&[1, 2, 4]), 2),
            Some(2)
        );
    }

    #[test]
    fn early_termination_zero_is_exact() {
        assert_eq!(overlap_with_min(&tid(&[1, 5]), &tid(&[2, 6]), 0), Some(0));
    }

    #[test]
    fn resume_from_positions() {
        let a = tid(&[1, 2, 3, 4, 5]);
        let b = tid(&[2, 3, 9]);
        // Pretend the prefix scan already matched token 2 (a[1], b[0]).
        let o = overlap_from(&a, &b, 2, 1, 1, 0).unwrap();
        assert_eq!(o, 2); // token 3 found in the suffixes
        assert_eq!(o, overlap(&a, &b));
    }

    #[test]
    fn intersect_small_matches_merge() {
        let small = tid(&[3, 7, 100]);
        let big = tid(&[1, 2, 3, 5, 7, 9, 11]);
        assert_eq!(intersect_small(&small, &big), 2);
        assert_eq!(intersect_small(&tid(&[]), &big), 0);
        assert_eq!(intersect_small(&small, &tid(&[])), 0);
    }

    fn sorted_set() -> impl Strategy<Value = Vec<TokenId>> {
        proptest::collection::btree_set(0u32..500, 0..80)
            .prop_map(|s| s.into_iter().map(TokenId).collect())
    }

    proptest! {
        #[test]
        fn overlap_agrees_with_naive(a in sorted_set(), b in sorted_set()) {
            let naive = a.iter().filter(|t| b.contains(t)).count();
            prop_assert_eq!(overlap(&a, &b), naive);
            prop_assert_eq!(intersect_small(&a, &b), naive);
            prop_assert_eq!(intersect_small(&b, &a), naive);
        }

        #[test]
        fn early_termination_is_consistent(
            a in sorted_set(), b in sorted_set(), req in 0usize..50
        ) {
            let exact = overlap(&a, &b);
            match overlap_with_min(&a, &b, req) {
                Some(o) => {
                    prop_assert_eq!(o, exact);
                    prop_assert!(o >= req);
                }
                None => prop_assert!(exact < req),
            }
        }

        #[test]
        fn resume_equals_full_merge(a in sorted_set(), b in sorted_set()) {
            // Resuming from the very start with acc=0 must equal `overlap`.
            let exact = overlap(&a, &b);
            prop_assert_eq!(overlap_from(&a, &b, 0, 0, 0, 0), Some(exact));
        }

        /// The suffix-filter bound never exceeds the true Hamming distance
        /// (the safety property: pruning on it cannot drop true matches).
        #[test]
        fn hamming_bound_is_a_lower_bound(
            a in sorted_set(), b in sorted_set(), hd_max in 0usize..100
        ) {
            let true_hamming = a.len() + b.len() - 2 * overlap(&a, &b);
            let bound = hamming_lower_bound(&a, &b, hd_max);
            prop_assert!(bound <= true_hamming,
                "bound {bound} exceeds true hamming {true_hamming}");
        }
    }

    #[test]
    fn hamming_bound_identical_sets_is_zero() {
        let a = tid(&[1, 2, 3, 4, 5]);
        assert_eq!(hamming_lower_bound(&a, &a, 10), 0);
    }

    #[test]
    fn hamming_bound_disjoint_sets_detected() {
        let a = tid(&[1, 2, 3, 4]);
        let b = tid(&[10, 20, 30, 40]);
        // True hamming is 8; the bound must exceed a tight budget so the
        // filter actually prunes.
        assert!(hamming_lower_bound(&a, &b, 1) > 1);
    }

    #[test]
    fn hamming_bound_empty_side() {
        let a = tid(&[1, 2, 3]);
        assert_eq!(hamming_lower_bound(&a, &tid(&[]), 5), 3);
        assert_eq!(hamming_lower_bound(&tid(&[]), &tid(&[]), 5), 0);
    }
}
