//! Simulation-overhead smoke benchmark: the same 50k-record distributed
//! run under the threaded executor vs. deterministic simulation.
//!
//! Simulation trades parallelism and zero-copy scheduling for exact
//! reproducibility (single thread, one message per scheduler step, a
//! transcript line per step), so it is expected to be slower; this bench
//! keeps the factor visible so the differential suite's cost stays
//! predictable. The recorded baseline lives in `results/BENCH_sim.json`.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use ssj_core::JoinConfig;
use ssj_distrib::{
    run_distributed, DistributedJoinConfig, LocalAlgo, PartitionMethod, Scheduler, SimConfig,
    Strategy,
};
use ssj_workloads::{DatasetProfile, StreamGenerator};
use std::hint::black_box;
use std::time::Duration;

const N: usize = 50_000;

fn cfg(scheduler: Scheduler) -> DistributedJoinConfig {
    DistributedJoinConfig {
        k: 4,
        join: JoinConfig::jaccard(0.8),
        local: LocalAlgo::bundle(),
        strategy: Strategy::LengthAuto {
            method: PartitionMethod::LoadAware,
            sample: 5_000,
        },
        channel_capacity: 1024,
        source_rate: None,
        fault: None,
        chaos_seed: None,
        shed_watermark: None,
        checkpoint: None,
        restore_from: None,
        dispatch_batch: None,
        trace: None,
        scheduler,
    }
}

fn bench_sim_vs_threaded(c: &mut Criterion) {
    let records = StreamGenerator::new(DatasetProfile::tweet(), 17).take_records(N);
    let mut g = c.benchmark_group("sim_vs_threaded_50k");
    g.sample_size(10);
    g.measurement_time(Duration::from_secs(10));
    g.throughput(Throughput::Elements(N as u64));
    g.bench_function("threads", |b| {
        b.iter(|| {
            let out = run_distributed(black_box(&records), &cfg(Scheduler::Threads));
            black_box(out.pairs.len())
        })
    });
    g.bench_function("sim", |b| {
        b.iter(|| {
            let out = run_distributed(
                black_box(&records),
                &cfg(Scheduler::Sim(SimConfig::seeded(17))),
            );
            black_box(out.pairs.len())
        })
    });
    g.finish();
}

criterion_group!(benches, bench_sim_vs_threaded);
criterion_main!(benches);
