//! Micro-benchmarks: the two verification kernels (scalar merge, and SSE2
//! on x86-64) at full length and under early termination, and delta-based
//! batch verification.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use ssj_core::verify;
use ssj_text::TokenId;
use std::hint::black_box;

fn tokens(n: u32, stride: u32, offset: u32) -> Vec<TokenId> {
    (0..n).map(|i| TokenId(i * stride + offset)).collect()
}

fn bench_overlap(c: &mut Criterion) {
    let mut g = c.benchmark_group("overlap");
    for &len in &[8usize, 64, 512] {
        let a = tokens(len as u32, 3, 0);
        let b = tokens(len as u32, 3, 3); // ~2/3 overlap
        g.throughput(Throughput::Elements(len as u64));
        g.bench_with_input(BenchmarkId::new("merge", len), &len, |bench, _| {
            bench.iter(|| black_box(verify::overlap_merge(black_box(&a), black_box(&b), 0, 0)))
        });
        #[cfg(target_arch = "x86_64")]
        g.bench_with_input(BenchmarkId::new("simd", len), &len, |bench, _| {
            bench.iter(|| black_box(verify::overlap_simd(black_box(&a), black_box(&b), 0, 0)))
        });
        g.bench_with_input(
            BenchmarkId::new("early_term_high", len),
            &len,
            |bench, _| {
                // Requirement just above the true overlap: aborts mid-merge.
                let req = verify::overlap(&a, &b) + 1;
                bench
                    .iter(|| black_box(verify::overlap_with_min(black_box(&a), black_box(&b), req)))
            },
        );
    }
    g.finish();
}

fn bench_batch_verification(c: &mut Criterion) {
    let mut g = c.benchmark_group("batch_verification");
    let len = 64u32;
    let rep = tokens(len, 3, 0);
    let probe = tokens(len, 3, 0);
    for &size in &[4usize, 16, 64] {
        let members: Vec<(Vec<TokenId>, Vec<TokenId>, Vec<TokenId>)> = (0..size)
            .map(|m| {
                let mut full = rep.clone();
                let del = vec![full[m % full.len()]];
                full.retain(|t| !del.contains(t));
                let add = vec![TokenId(100_000 + m as u32)];
                full.extend(add.iter().copied());
                full.sort_unstable();
                (full, add, del)
            })
            .collect();
        g.throughput(Throughput::Elements(size as u64));
        g.bench_with_input(BenchmarkId::new("individual", size), &size, |bench, _| {
            bench.iter(|| {
                let mut acc = 0usize;
                for (full, _, _) in &members {
                    acc += verify::overlap(black_box(&probe), full);
                }
                black_box(acc)
            })
        });
        g.bench_with_input(BenchmarkId::new("batch_delta", size), &size, |bench, _| {
            bench.iter(|| {
                let o_rep = verify::overlap(black_box(&probe), &rep);
                let mut acc = 0usize;
                for (_, add, del) in &members {
                    acc += o_rep + verify::intersect_small(add, &probe)
                        - verify::intersect_small(del, &probe);
                }
                black_box(acc)
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_overlap, bench_batch_verification);
criterion_main!(benches);
