//! Router decision cost and a small end-to-end distributed run.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use ssj_core::{JoinConfig, Threshold};
use ssj_distrib::{
    run_distributed, BroadcastRouter, DistributedJoinConfig, LengthRouter, LocalAlgo,
    PartitionMethod, PrefixRouter, Router, Scheduler, Strategy,
};
use ssj_partition::{CostModel, LengthHistogram};
use ssj_workloads::{DatasetProfile, StreamGenerator};
use std::hint::black_box;

fn bench_routers(c: &mut Criterion) {
    let records = StreamGenerator::new(DatasetProfile::aol(), 3).take_records(10_000);
    let t = Threshold::jaccard(0.8);
    let hist = LengthHistogram::from_records(&records);
    let cost = CostModel::build(&hist, t, hist.max_len());
    let partition = ssj_partition::load_aware(&cost, 8);
    let mut g = c.benchmark_group("router_decisions");
    g.throughput(Throughput::Elements(records.len() as u64));
    g.bench_function(BenchmarkId::new("length", 8), |b| {
        let mut r = LengthRouter::new(t, partition.clone());
        b.iter(|| {
            let mut msgs = 0usize;
            for rec in &records {
                msgs += r.route(black_box(rec)).message_count();
            }
            black_box(msgs)
        })
    });
    g.bench_function(BenchmarkId::new("prefix", 8), |b| {
        let mut r = PrefixRouter::new(t, 8);
        b.iter(|| {
            let mut msgs = 0usize;
            for rec in &records {
                msgs += r.route(black_box(rec)).message_count();
            }
            black_box(msgs)
        })
    });
    g.bench_function(BenchmarkId::new("broadcast", 8), |b| {
        let mut r = BroadcastRouter::new(8);
        b.iter(|| {
            let mut msgs = 0usize;
            for rec in &records {
                msgs += r.route(black_box(rec)).message_count();
            }
            black_box(msgs)
        })
    });
    g.finish();
}

fn bench_end_to_end(c: &mut Criterion) {
    let records = StreamGenerator::new(DatasetProfile::tweet(), 9).take_records(3_000);
    let join = JoinConfig::jaccard(0.8);
    let mut g = c.benchmark_group("distributed_e2e_3k");
    g.sample_size(10);
    g.throughput(Throughput::Elements(records.len() as u64));
    let length = Strategy::LengthAuto {
        method: PartitionMethod::LoadAware,
        sample: 500,
    };
    for (name, strategy, dispatch_batch) in [
        ("length", length.clone(), None),
        // Same topology with 32-message dispatcher batches: the gap is the
        // per-message channel overhead the batching amortizes.
        ("length_batch32", length, Some(32)),
        ("prefix", Strategy::Prefix, None),
        ("broadcast", Strategy::Broadcast, None),
    ] {
        g.bench_function(name, |b| {
            b.iter(|| {
                let cfg = DistributedJoinConfig {
                    k: 4,
                    join,
                    local: LocalAlgo::bundle(),
                    strategy: strategy.clone(),
                    channel_capacity: 1024,
                    source_rate: None,
                    fault: None,
                    shed_watermark: None,
                    checkpoint: None,
                    restore_from: None,
                    dispatch_batch,
                    trace: None,
                    scheduler: Scheduler::Threads,
                };
                black_box(run_distributed(black_box(&records), &cfg).pairs.len())
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_routers, bench_end_to_end);
criterion_main!(benches);
